(** The committee-based WHP coin — Algorithm 2 of the paper.

    Structure of Algorithm 1 with the two all-to-all phases replaced by
    two sampled committees [C(FIRST, lambda)] and [C(SECOND, lambda)]:
    only committee members send (to everybody — the next committee is
    unpredictable), and thresholds wait for [W] messages instead of
    [n - f].  Every process (member or not) collects SECOND messages and
    returns the LSB of its minimum after [W] of them.

    Values in SECOND messages may originate at a process other than the
    sender, so a value carries the {e origin's} VRF output {e and} the
    origin's FIRST-committee certificate: without the latter, a Byzantine
    SECOND-committee member could inject the (valid) VRF draw of a
    non-committee crony, which would fall outside the analysis of Lemma
    B.3.  The paper's pseudo-code leaves this validation implicit ("with
    valid [v_j] from validly sampled [p_j]"); we make it explicit. *)

type value = {
  origin : int;
  out : Vrf.output;          (** [VRF_origin(r)]. *)
  origin_cert : Sample.cert; (** origin's membership in [C(FIRST, lambda)]. *)
}

val compare_value : value -> value -> int

type msg =
  | First of { value : value }                       (** sender = origin. *)
  | Second of { value : value; cert : Sample.cert }  (** [cert]: sender's SECOND membership. *)

val words_of_msg : msg -> int
val tag_of_msg : msg -> string
(** Phase tag for metrics labelling: FIRST or SECOND. *)

val pp_msg : Format.formatter -> msg -> unit

type action = Broadcast of msg | Return of int

type t

type cache
(** Run-shared validation memo (same discipline as {!Approver.cache}):
    value verdicts at the origin's FIRST-committee rank and
    SECOND-certificate verdicts at the sender's SECOND-committee rank,
    each phase resolved ({!Sample.Phase}) by the first delivery that
    consults it, each slot guarded by the message content it validated
    — physical-equality hit first, byte comparison second, full
    re-verification on mismatch.  A FIRST and a SECOND
    carrying the same origin share its slot; an origin outside the FIRST
    committee, or outside [[0, n)], is invalid without one. *)

val cache : unit -> cache

val create :
  ?dir:Sample.Directory.t ->
  ?cache:cache ->
  keyring:Vrf.Keyring.t ->
  params:Params.t ->
  pid:int ->
  instance:string ->
  round:int ->
  unit ->
  t
(** [dir] (default: private) shares ground-truth committee indexes across
    the run's instances; its lambda must match [params].  [cache]
    (default: private) shares validation verdicts. *)

val start : t -> action list
(** Run the committee sampler on this process's own certificates (not on
    the committees); broadcast FIRST when selected.  Idempotent; must be
    called on every process (non-members simply send nothing). *)

val handle : t -> src:int -> msg -> action list
val result : t -> int option
val current_min : t -> value option

val clone : t -> t
(** Deep copy for state-space search; keyring, directory and validation
    cache are shared (deterministic constants / pure memo tables). *)

val encode : Buffer.t -> t -> unit
(** Canonical state encoding for visited-state hashing. *)

val first_committee_string : instance:string -> round:int -> string
val second_committee_string : instance:string -> round:int -> string
(** The sampling strings, exposed so analysis code can inspect the
    committees an instance used. *)
