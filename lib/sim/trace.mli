(** Execution tracing: a bounded event log attached to an {!Engine}.

    Useful for debugging protocol runs and for forensic assertions in
    tests ("no correct process sent after X", "message m was delivered to
    everyone").  Events are recorded through the engine's compact send
    hook ({!Engine.on_send_meta}), its delivery hook and its corruption
    hook, so attaching a trace never changes an execution, nor the path
    the engine takes to run it.  A broadcast's [n] [Sent] events are
    written when it is sent, in destination order, with envelope ids
    ascending.

    {2 Storage and memory}

    The ring is a row of chunks of 1024 slots, each slot seven ints, so
    recording an event is seven int stores and allocates nothing.  A
    chunk is allocated when the ring first reaches it (the last one cut
    to [capacity]) and is never copied or moved: after [k] events the
    chunks hold fewer than [k + 1024] slots and never more than
    [capacity], at 7 words a slot, so the default capacity of 100,000
    costs at most 5.6 MB on a 64-bit host.  The {!event} values that the
    folds pass are built as they read them. *)

type event =
  | Sent of { step : int; id : int; src : int; dst : int; depth : int; words : int }
  | Delivered of { step : int; id : int; src : int; dst : int; depth : int }
  | Corrupted of { step : int; pid : int }

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer of at most [capacity] events (default 100,000); older
    events are dropped first.
    @raise Invalid_argument when [capacity <= 0]. *)

val attach : t -> 'm Engine.t -> unit
(** Start recording the engine's sends, deliveries and corruptions. *)

val fold : t -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Fold over the recorded events, oldest first, in one pass over the
    ring buffer and without materializing a list.  Every query below is
    implemented on top of this. *)

val fold_right : t -> f:(event -> 'a -> 'a) -> init:'a -> 'a
(** {!fold} newest first: consing each event builds a list oldest
    first, with no [List.rev]. *)

val iter : t -> f:(event -> unit) -> unit

val events : t -> event list
(** Recorded events, oldest first. *)

val length : t -> int

val dropped : t -> int
(** Events lost to the capacity bound. *)

val sends_by : t -> int -> int
(** Number of sends by a process. *)

val deliveries_of : t -> id:int -> int list
(** Destinations that received message [id], in delivery order. *)

val corrupted_pids : t -> int list

val max_depth : t -> int
(** Largest causal depth seen on any event. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
(** Prints the whole log, one event per line. *)
