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
    materialized per delivery for observers and handlers.  How a broadcast
    reaches the event queue is the {!expand} mode:

    - [Eager]: n individual enqueues, the seed behaviour.
    - [Lazy] (default): one broadcast record; all n latencies are drawn at
      broadcast time from the engine rng in destination order — the exact
      draws the eager loop makes — then destinations are expanded one at a
      time as the queue picks them, with a single outstanding heap entry
      per broadcast.  Runs are byte-identical to [Eager] under any
      scheduler on a fixed seed.
    - [Sharded { jobs }]: like [Lazy], but the latency draws are fanned
      out over the {!Exec} domain pool in fixed-size destination chunks,
      each chunk drawing from an rng derived from (engine seed, broadcast
      id, chunk index), merged deterministically by (time, dst).  Output
      is byte-identical for every [jobs] value, but is a {e different}
      (equally valid) schedule than [Eager]/[Lazy].  Requires a
      {!Scheduler.t} with [content_oblivious = true] whose latency
      function is safe to call from worker domains (all built-ins are);
      otherwise the broadcast silently falls back to [Lazy].

    Which hooks force [Eager]: only per-envelope {!on_send} observers.
    They can corrupt the sender between two destinations of one
    broadcast, which only eager expansion can realise, so registering
    one forces eager expansion for subsequent broadcasts regardless of
    mode.  Today the adaptive policies of {!Faults} are the only ones.
    Every passive observer ({!Ledger}, {!Trace}, [Obs.Bridge]) uses
    {!on_send_meta} and {!on_deliver}, so an observed run takes the
    same expansion path, and the same schedule, as an unobserved one. *)

type 'm t

type expand =
  | Eager  (** per-destination enqueue, the seed engine's behaviour. *)
  | Lazy  (** one record per broadcast, expanded on demand; the default. *)
  | Sharded of { jobs : int }
      (** lazy with latency draws sharded over the {!Exec} pool;
          [jobs = 0] resolves to {!Exec.default_jobs}. *)

type run_result =
  | All_done      (** the predicate became true. *)
  | Quiescent     (** no pending messages remain (and predicate is false). *)
  | Step_limit    (** gave up after [max_steps] deliveries. *)

val create :
  ?scheduler:'m Scheduler.t ->
  ?expand:expand ->
  ?queue_capacity:int ->
  n:int ->
  seed:int ->
  unit ->
  'm t
(** Default scheduler is {!Scheduler.random}; default expansion is
    [Lazy].  [queue_capacity] preallocates the event queue (default
    scales with [n]). *)

val n : 'm t -> int
val rng : 'm t -> Crypto.Rng.t
val metrics : 'm t -> Metrics.t
val expand_mode : 'm t -> expand

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
    traffic in [Lazy]/[Sharded] modes. *)

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

val on_send : 'm t -> ('m Envelope.t -> unit) -> unit
(** Register an adversary observer invoked on every send — the "sees all
    communication" power, used by adaptive corruption policies.  Observers
    fire in registration order, after the {!on_send_meta} call for the
    same envelope.  Registering one forces eager broadcast expansion (see
    the module header); passive accounting uses {!on_send_meta}. *)

val on_send_meta :
  'm t ->
  (src:int -> id:int -> dst:int -> count:int -> words:int -> depth:int -> correct:bool -> 'm -> unit) ->
  unit
(** Compact send hook.  One call covers the envelopes [id + k] to
    destination [dst + k] for [k < count], all from [src], all of
    [words] words and causal depth [depth], all sent at the current
    {!step} and {!now}.  [correct] is the sender's class as the engine
    judged it, the class the {!Metrics} counters book the words under.

    - Under [Lazy] and [Sharded] expansion a broadcast is one call, with
      [id] its first envelope, [dst = 0] and [count = n].
    - Under [Eager] expansion, and for every unicast, each envelope is
      its own call with [count = 1], made before the {!on_send}
      observers see that envelope.  So a send is reported before any
      corruption it triggers, and a broadcast cut by a mid-broadcast
      corruption is reported destination by destination, each in the
      class it was sent in.

    Does not force eager expansion.  Observers fire in registration
    order. *)

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
