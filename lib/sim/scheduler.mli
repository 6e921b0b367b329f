(** Adversarial message scheduling.

    The adversary of the paper "schedules all messages" subject to reliable
    delivery.  We realise scheduling as a latency assignment: when a message
    is sent, the scheduler assigns it a virtual delivery time, and the
    engine always delivers the pending message with the smallest time.
    Any finite latency assignment keeps links reliable; the different
    built-in schedulers realise different adversary behaviours.

    The {b delayed-adaptive} restriction (Definition 2.1) says the
    scheduling of a message may depend on the content of another message
    [m] only if [m] causally precedes it.  Every built-in scheduler is
    content-oblivious — its latency never reads a payload — a strictly
    stronger property that trivially satisfies the definition.  A
    {!custom} latency function carries no such guarantee.  The engine
    calls the latency function at send time, once per destination, in
    destination order within a broadcast. *)

type 'm t = { latency : 'm latency_fn }

and 'm latency_fn =
  rng:Crypto.Rng.t -> now:float -> step:int -> src:int -> dst:int -> payload:'m -> float
(** Returns the latency (>= 0) added to the current virtual time [now]
    ([step] is the delivery count so far). *)

val random : ?mean:float -> unit -> 'm t
(** Exponentially distributed i.i.d. latencies — the "benign asynchrony"
    baseline adversary. *)

val fifo : unit -> 'm t
(** Delivers in send order (latency 0): a synchronous-looking run. *)

val targeted : victims:(int -> bool) -> factor:float -> ?mean:float -> unit -> 'm t
(** Random latencies, but messages {e from} a victim are slowed by
    [factor]: models an adversary suppressing chosen processes for as long
    as reliability allows. *)

val split : group:(int -> bool) -> cross_delay:float -> ?mean:float -> unit -> 'm t
(** Two clusters with fast intra-cluster and slow cross-cluster delivery:
    the classic partition-then-heal schedule that stresses round-based
    protocols. *)

val eventual_sync : ?gst:float -> ?bound:float -> ?chaos_mean:float -> unit -> 'm t
(** Eventual synchrony: fully adversarial (exponential, [chaos_mean],
    default 20) latencies before the global stabilisation time [gst]
    (default 50), uniformly bounded by [bound] (default 1) afterwards.
    The model under which Algorand's follow-up operates; our protocols
    must stay safe throughout and get fast after GST. *)

val custom : 'm latency_fn -> 'm t
(** Escape hatch for experiment-specific (including deliberately cheating)
    adversaries. *)
