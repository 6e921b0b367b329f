(** Labeled counters and log-bucketed histograms.

    A registry holds two keyed families: integer counters and value
    histograms.  A series is identified by a metric name plus an optional
    label set ([("tag", "FIRST"); ("class", "correct")], ...); labels are
    canonicalised (sorted by key) so the call-site order never splits a
    series.  Histograms use fixed log-spaced (power-of-two) buckets, which
    keeps observation O(#buckets) with no per-series configuration and
    makes bucket edges identical across runs — the property exporters and
    diffing tools rely on.

    A series is resolved once into a handle ({!counter}, {!histo}) and
    recorded through it with plain stores: no label sorting, rendering
    or hashing per record.  {!incr} and {!observe} resolve and record in
    one call; they are wrappers over the same handles, so every record
    takes one path.  A resolved series appears in folds, merges and
    documents only once something was recorded into it, so resolving
    ahead of use never changes a document.

    Everything here is observation-only bookkeeping: recording into a
    registry never perturbs an execution (no RNG, no scheduling). *)

type t

val create : unit -> t

type counter
(** A resolved counter series. *)

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Resolve the counter series [name]/[labels], creating it unrecorded
    if needed.  Equal (name, labels) give the same handle. *)

val add : counter -> int -> unit
(** Add to the counter; the series is recorded from then on, even when
    the amount is 0. *)

val incr : t -> ?by:int -> ?labels:(string * string) list -> string -> unit
(** [add (counter t ?labels name) by], [by] defaulting to 1. *)

type histo
(** A resolved histogram series. *)

val histo : t -> ?labels:(string * string) list -> string -> histo
(** Resolve the histogram series [name]/[labels], creating it unrecorded
    if needed. *)

val record : histo -> count:int -> float -> unit
(** Record [count] observations of one value.  [count = 0] is a no-op
    that leaves the series unrecorded.  The sum grows by
    [value * count], which equals [count] separate additions for
    integer-valued observations below 2^53.  Non-finite values are
    counted in [count]/[sum] but land in the overflow bucket; callers
    normally observe finite sim quantities.
    @raise Invalid_argument on a negative [count]. *)

val record_int : histo -> count:int -> int -> unit
(** [record h ~count (float_of_int v)] without boxing a float at the
    call, so an integer observation allocates nothing. *)

val record_diff : histo -> count:int -> float -> float -> unit
(** [record_diff h ~count a b] is [record h ~count (a -. b)], with the
    difference taken inside, so it is never boxed: an interval between
    two stored times allocates nothing. *)

val observe : t -> ?labels:(string * string) list -> string -> float -> unit
(** [record (histo t ?labels name) ~count:1 v]. *)

val counter_value : t -> ?labels:(string * string) list -> string -> int
(** 0 when the series was never recorded into. *)

val bucket_bounds : float array
(** The shared histogram upper bounds: 1, 2, 4, ... 2^24, then [infinity]
    as the overflow bucket.  A value [v] lands in the first bucket with
    [v <= bound]. *)

val bucket_index : float -> int
(** Index into {!bucket_bounds} where a value lands. *)

type hist = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty. *)
  max : float;  (** [neg_infinity] when empty. *)
  buckets : int array;  (** same length as {!bucket_bounds}. *)
}

val histogram : t -> ?labels:(string * string) list -> string -> hist option
(** A snapshot; [None] when the series was never recorded into. *)

val fold_counters : t -> init:'a -> f:('a -> name:string -> labels:(string * string) list -> int -> 'a) -> 'a
val fold_histograms : t -> init:'a -> f:('a -> name:string -> labels:(string * string) list -> hist -> 'a) -> 'a
(** Recorded series only, in a deterministic order: sorted by (name,
    labels). *)

val to_json : t -> Json.t
(** [{"counters": [{"name","labels","value"}...],
      "histograms": [{"name","labels","count","sum","min","max",
                      "buckets":[{"le","count"}...]}...]}]
    with zero-count buckets omitted; series sorted by (name, labels) so
    the document is deterministic. *)

val merge_into : into:t -> t -> unit
(** Add every series of the source registry into [into]: counters add,
    histogram cells add component-wise (count, sum, buckets; min/max take
    the extremum).  Series are matched by (name, canonical labels), so
    merging is insensitive to call-site label order. *)

module Sharded : sig
  (** One private registry per {!Exec} worker, merged after the pool
      joins.

      The hot path is untouched single-domain mutation: worker [w]
      records into [shard t w] and nothing else, so no Mutex or Atomic
      guards {!incr}/{!observe} — the coinlint [domain-hygiene] rule
      stays honest.  Cross-domain visibility comes from [Domain.join]'s
      happens-before edge (Exec joins every worker before the caller can
      {!merged}).  {!claim} is the one synchronised operation: an atomic
      test-and-set per shard that turns an accidental double-assignment
      — which the no-sync design would otherwise corrupt silently — into
      an immediate exception.

      {!merged} combines shards in ascending worker order.  The merged
      registry is byte-identical for every worker count provided each
      observation is attributable to a trial and trials are index-sharded
      (the {!Core.Analysis} discipline): integer counters add exactly,
      and campaign observations are integer-valued floats whose sums stay
      far below 2^53, so float addition is exact and grouping-independent
      — see DESIGN.md "Sharded metrics". *)

  type registry = t

  type t

  val create : workers:int -> t
  (** @raise Invalid_argument when [workers <= 0]. *)

  val workers : t -> int

  val shard : t -> int -> registry
  (** Read access to shard [w] without claiming it.
      @raise Invalid_argument when out of range. *)

  val claim : t -> int -> registry
  (** Take exclusive ownership of shard [w] for one campaign.
      @raise Invalid_argument when out of range or already claimed. *)

  val release_all : t -> unit
  (** Drop every claim (call after the pool has joined), so a registry
      can accumulate across several sequential campaigns. *)

  val merged : t -> registry
  (** A fresh registry holding all shards merged in worker-index order. *)
end
