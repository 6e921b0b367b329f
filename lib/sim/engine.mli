(** Discrete-event asynchronous network engine.

    Processes are message handlers registered per pid; an adversarial
    {!Scheduler} orders deliveries; corruption turns a process Byzantine
    (attacker-supplied handler, still subject to cryptographic checks at
    receivers) or crashes it.  Determinism: a run is a pure function of the
    seed, the protocol, and the adversary.

    Faithfulness to the paper's model (§2): links are reliable and
    authenticated (the engine never drops or forges; source ids are
    trustworthy metadata), delivery order is adversary-controlled, and
    there is no bound on latency.  Corruption cannot remove messages
    already sent (no after-the-fact removal): envelopes in flight at
    corruption time are still delivered.

    {2 Storage and expansion}

    In-flight messages live in flat struct-of-arrays arenas (int fields in
    int arrays, payloads in a parallel array); {!Envelope.t} is a view
    materialized per delivery for observers and handlers.  A broadcast is
    one record: all n latencies are drawn at broadcast time from the
    engine rng in destination order, then destinations are expanded one
    at a time as the queue picks them, with a single outstanding heap
    entry per broadcast.  Envelope ids, latency draws and delivery order
    are those of n individual enqueues in destination order (pinned by
    golden digests in [test/t_sim.ml] and [test/t_ba.ml]).

    {2 The adaptive adversary}

    The paper's delayed-adaptive adversary may corrupt a process once it
    sees it send, but cannot un-send.  {!on_sent} hooks realise that
    power: they run once per {!send} or {!broadcast}, after its first
    envelope is on the queue and reported to {!on_send_meta}.  A
    broadcast under a hook sends destination 0 first; if the hook crashed
    the sender, the broadcast ends there, otherwise destinations
    [1 .. n-1] go out as one record in the sender's class after the hook.
    Passive observers ({!Ledger}, {!Trace}, [Obs.Bridge]) use
    {!on_send_meta} and {!on_deliver} and never change the run. *)

type 'm t

type run_result =
  | All_done      (** the predicate became true. *)
  | Quiescent     (** no pending messages remain (and predicate is false). *)
  | Step_limit    (** gave up after [max_steps] deliveries. *)

val create : ?scheduler:'m Scheduler.t -> n:int -> seed:int -> unit -> 'm t
(** Default scheduler is {!Scheduler.random}. *)

val n : 'm t -> int
val rng : 'm t -> Crypto.Rng.t
val metrics : 'm t -> Metrics.t

val step : 'm t -> int
(** Number of deliveries so far. *)

val now : 'm t -> float
(** Current virtual time. *)

val set_handler : 'm t -> int -> ('m Envelope.t -> unit) -> unit
(** Install the protocol handler for a (correct) process. *)

val send : 'm t -> src:int -> dst:int -> words:int -> 'm -> unit
(** Enqueue a message; its causal depth and word cost are recorded. *)

val broadcast : 'm t -> src:int -> words:int -> 'm -> unit
(** Send to all [n] processes (including the sender), as in the paper's
    "send to all" steps.  Cost is O(n) latency draws but O(1) queue
    traffic. *)

val corrupt_crash : 'm t -> int -> unit
(** Crash-stop: subsequent deliveries to this process are dropped and it
    sends nothing more. *)

val corrupt_byzantine : 'm t -> int -> ('m Envelope.t -> unit) -> unit
(** Hand the process to the adversary: the given handler replaces the
    protocol handler and may send arbitrary messages (its words are
    accounted separately from correct words). *)

val is_correct : 'm t -> int -> bool
val corrupted_count : 'm t -> int

val correct_pids : 'm t -> int list

val all_correct_monotone : 'm t -> (int -> bool) -> unit -> bool
(** [all_correct_monotone t pred] builds a predicate equivalent to
    "every currently-correct pid satisfies [pred]" under two
    monotonicity assumptions: [pred pid] never flips back to [false]
    once observed [true] (decisions and sub-protocol returns are
    permanent), and corruption never heals (crashed / Byzantine is
    forever — which {!corrupt_crash}/{!corrupt_byzantine} guarantee).
    The closure keeps a frontier cursor and only ever re-examines the
    first unsatisfied pid, so calling it once per delivery — the
    {!run} [~until] discipline — costs amortized O(1) instead of the
    O(n) of a fresh [correct_pids] scan.  At n = 10^5 that difference
    is the run: an O(n) [~until] turns a linear-word protocol
    quadratic in wall-clock. *)

val on_sent : 'm t -> (src:int -> 'm -> unit) -> unit
(** Register an adversary hook, the "sees all communication" power of
    adaptive corruption policies ({!Faults}).  It runs once per {!send}
    or {!broadcast} from a process that has not crashed, with the sender
    and the payload, after the first envelope — the unicast, or
    destination 0 of a broadcast — has been enqueued and reported to
    {!on_send_meta}.  So a send always comes before the corruption it
    triggers.  The rest of a broadcast goes out after the hook, in the
    class the sender then has, or not at all if it crashed.  A hook may
    corrupt processes but must not send: the rest of the broadcast needs
    the envelope ids that follow the first, so a broadcast whose hook
    sends raises [Invalid_argument].  Hooks fire in registration
    order. *)

val on_send_meta :
  'm t ->
  (src:int -> id:int -> dst:int -> count:int -> words:int -> depth:int -> correct:bool -> 'm -> unit) ->
  unit
(** Compact send hook.  One call covers the envelopes [id + k] to
    destination [dst + k] for [k < count], all from [src], all of
    [words] words and causal depth [depth], all sent at the current
    {!step} and {!now}.  [correct] is the sender's class as the engine
    judged it, the class the {!Metrics} counters book the words under.

    - A unicast is one call with [count = 1].
    - A broadcast is one call with [id] its first envelope, [dst = 0] and
      [count = n] when no {!on_sent} hook is registered.
    - Under a hook, a broadcast is a [count = 1] call for destination 0,
      made before the hook runs, then, unless the hook crashed the
      sender or [n = 1], one call for destinations [1 .. n-1] in the
      class the sender has after the hook.

    Observers fire in registration order. *)

val on_deliver : 'm t -> ('m Envelope.t -> unit) -> unit
(** Observer invoked on every delivery, before the destination handler.
    Observers fire in registration order. *)

val on_corrupt : 'm t -> (int -> unit) -> unit
(** Observer invoked with the pid whenever a process is corrupted.
    Observers fire in registration order. *)

val depth_of : 'm t -> int -> int
(** Current causal depth of a process (the paper's duration metric). *)

val max_correct_depth : 'm t -> int

val run : ?max_steps:int -> 'm t -> until:(unit -> bool) -> run_result
(** Deliver messages until the predicate holds, the network quiesces, or
    [max_steps] (default 50,000,000) deliveries happen. *)
