(** The approver abstraction — Algorithm 3 of the paper.

    An adaptation of Mostefaoui et al.'s SBV-broadcast to committees.
    Under the assumption that correct processes invoke it with at most two
    distinct values, it guarantees (whp): {e validity} (unanimous input
    [v] forces return value [{v}]), {e graded agreement} (two singleton
    returns are the same singleton), and {e termination}.

    Three phases, each restricted to a sampled committee:
    - INIT: committee members broadcast their input;
    - ECHO: a {e per-value} committee ([C(<echo,v>, lambda)] — one
      committee per value so each member sends at most one message:
      process replaceability) boosts any value received from [B+1]
      processes;
    - OK: members who see [W] echoes for a value broadcast [ok(v)]
      (first value only), carrying the [W] signed echoes as proof.

    A process returns the value set of the first [W] valid [ok]s.

    Values are [0], [1] and {!bot}, the ones Byzantine Agreement uses; a
    message naming any other value is dropped before it reaches any
    state.
    The [ok] support entries carry each echoer's committee certificate in
    addition to its signature: signatures alone would let a Byzantine
    [ok]-sender use echo signatures from Byzantine friends {e outside} the
    echo committee (there can be up to [f >> W] of those).  The paper
    omits proof plumbing "for clarity"; this is the faithful completion. *)

val bot : int
(** The distinguished value ⊥ used by Byzantine Agreement (= -1). *)

type echo_evidence = { pid : int; cert : Sample.cert; signature : string }

type msg =
  | Init of { v : int; cert : Sample.cert }
  | Echo of { v : int; cert : Sample.cert; signature : string }
  | Ok of { v : int; cert : Sample.cert; support : echo_evidence list }

val words_of_msg : msg -> int
val tag_of_msg : msg -> string
(** Phase tag for metrics labelling: INIT, ECHO or OK. *)

val pp_msg : Format.formatter -> msg -> unit

type action =
  | Broadcast of msg
  | Deliver of int list  (** the returned value set, sorted; emitted once. *)

type t

type cache
(** Run-shared validation memo ({!Sample.Memo}): committee-certificate
    and echo-signature verdicts in one array per phase string, one slot
    per committee member by {!Sample.Directory.rank}.  The run's
    instances share one handle per phase ({!Sample.Phase}), which
    resolves the committee and its array the first time a delivery or a
    step of that phase consults it, so a delivery reads one slot without
    hashing and a phase no message reaches costs no VRF evaluation.  An OK's support entries use the ECHO slots of their
    pids.  Each slot is guarded by the message content it validated
    (physical equality first — a broadcast shares one payload across all
    n deliveries — then byte comparison, full re-verification on any
    mismatch); a sender outside the committee, or a pid outside
    [[0, n)], has no valid certificate and gets no slot.  Sharing one
    cache across a run's n instances collapses the O(W) per-delivery
    support re-verification to an O(1) lookup without weakening
    validation. *)

val cache : unit -> cache

val create :
  ?dir:Sample.Directory.t ->
  ?cache:cache ->
  keyring:Vrf.Keyring.t ->
  params:Params.t ->
  pid:int ->
  instance:string ->
  unit ->
  t
(** Passive instance ([instance] must be unique per approver invocation:
    it salts all committee sampling and signatures).  [dir] (default: a
    private directory) shares ground-truth committee indexes across the
    run's instances; its lambda must match [params].  [cache] (default:
    private) shares validation verdicts. *)

val input : t -> int -> action list
(** approve(v): line 1 — broadcast INIT when sampled.  Idempotent; the
    first value wins.  The OK-committee certificate is sampled later,
    when an echo threshold first fires.
    @raise Invalid_argument unless [v] is [0], [1] or {!bot}. *)

val handle : t -> src:int -> msg -> action list

val result : t -> int list option
(** The delivered value set, once available. *)

val clone : t -> t
(** Deep copy for state-space search; the keyring, directory and
    validation cache (all deterministic run-wide constants, or pure
    memo tables) are shared with the original. *)

val encode : Buffer.t -> t -> unit
(** Canonical state encoding for visited-state hashing: certificates and
    signatures are deterministic in (keyring, instance, pid) and are
    represented by pids alone. *)
