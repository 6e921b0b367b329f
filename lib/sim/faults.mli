(** Fault-injection helpers: choosing victims and wiring adaptive
    corruption policies onto an {!Engine}.

    Concrete Byzantine {e strategies} (what a corrupted process sends) are
    protocol-specific and live next to each protocol; this module only
    decides {e who} gets corrupted and {e when}. *)

val choose_random : Crypto.Rng.t -> n:int -> f:int -> int list
(** [f] distinct victims chosen uniformly. *)

val crash_all : 'm Engine.t -> int list -> unit

val byzantine_all : 'm Engine.t -> int list -> (int -> 'm Envelope.t -> unit) -> unit
(** [byzantine_all eng pids strategy] corrupts each pid with
    [strategy pid]. *)

val adaptive_crash_first_senders : 'm Engine.t -> f:int -> unit
(** Adaptive adversary that crashes the first [f] distinct processes it
    observes sending — legal under the paper's model (corruption is
    adaptive; it just cannot un-send what was already sent, which the
    engine guarantees).  Runs on {!Engine.on_sent}: a crashed sender's
    broadcast reaches destination 0 only. *)
