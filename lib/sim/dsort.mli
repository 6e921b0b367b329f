(** Delivery-order sort for broadcast expansion: the parallel arrays
    (times, dsts) sorted ascending by [(time, dst)].

    Distribution-adaptive: a stable bucket scatter over the time range
    followed by a budgeted insertion pass — linear for the latency
    distributions the bundled schedulers draw — with a specialised
    quicksort fallback when the input defeats the bucketing (heavy tails,
    infinities, adversarial custom schedulers).  The result is always the
    exact comparison order; only the route there adapts. *)

type scratch
(** Reusable scatter buffers.  One per engine; grown on demand so
    steady-state broadcasts allocate nothing. *)

val scratch : unit -> scratch

val sort : scratch -> float array -> int array -> int -> unit
(** [sort s times dsts len] sorts the first [len] elements of the parallel
    arrays in place, ascending by [(time, dst)].  Destination values must
    be distinct; [times] need not be (stable over the input's dst order). *)

val draw_buffer : scratch -> int -> float array
(** A reusable staging array of at least the given length for latency
    draws, owned by the scratch — hand it to {!sort_into}. *)

val sort_into :
  scratch ->
  tmin:float ->
  tmax:float ->
  dst0:int ->
  float array ->
  int ->
  float array ->
  int array ->
  unit
(** [sort_into s ~tmin ~tmax ~dst0 draw len times dsts] writes the first
    [len] draws — element [i] of [draw] belonging to destination
    [dst0 + i] — into [times]/[dsts] in delivery order.  [tmin]/[tmax]
    must bound the draws (computed for free in the draw loop); [draw]
    should come from {!draw_buffer} and is left unspecified afterwards. *)

val quicksort : float array -> int array -> int -> int -> unit
(** [quicksort times dsts lo hi] — the comparison-based fallback, exposed
    for differential testing against {!sort}. *)
