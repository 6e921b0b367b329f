(** Validated committee sampling (paper §5.1).

    Every process [p_i] holds a private [sample_i(s, lambda)] returning
    [(v_i, sigma_i)] with [v_i] true iff [p_i] belongs to the committee
    [C(s, lambda)], plus a publicly checkable proof.  We realise it with
    the VRF: membership holds when the leading bits of
    [VRF_i("sample" · s)] fall below [lambda/n] of the value space, so each
    process is sampled independently with probability [lambda/n], cannot
    lie about the outcome (VRF uniqueness), and nobody can predict another
    process's membership (VRF pseudorandomness). *)

type cert = { member : bool; vrf : Vrf.output }
(** The proof [sigma_i]: the VRF output substantiating the claim. *)

val cert_words : int
(** Word cost of shipping a certificate inside a message (VRF value +
    proof, per the paper's word metric). *)

val sample : Vrf.Keyring.t -> pid:int -> s:string -> lambda:int -> cert
(** [sample kr ~pid ~s ~lambda] is process [pid]'s private sampling
    function: evaluates its own VRF; [ (result).member] says whether it is
    in [C(s, lambda)]. *)

val committee_val : Vrf.Keyring.t -> s:string -> lambda:int -> pid:int -> cert -> bool
(** The public function [committee-val(s, lambda, i, sigma)]: [true] iff
    the certificate is a valid proof that [pid] is in [C(s, lambda)].
    A certificate with [member = false] or a bad proof yields [false], and
    so does a [pid] outside [[0, n)]. *)

val same_cert : cert -> cert -> bool
(** Physical equality, else byte equality of the claim and the VRF
    output: the guard a memoized verdict is replayed under. *)

val committee : Vrf.Keyring.t -> s:string -> lambda:int -> int list
(** Omniscient view (analysis/tests only): the full membership of
    [C(s, lambda)] obtained by evaluating every process's sampler. *)

val threshold : n:int -> lambda:int -> int64
(** The inclusion threshold on the leading 52 bits of beta (exposed for
    tests of the inclusion-probability computation). *)

(** Run-shared ground-truth committee index.

    The simulator holds every process's keys, so it can evaluate the full
    membership of [C(s, lambda)] once per phase string and share the
    result across all n protocol instances as a {!Sim.Bitset} plus a
    rank table.  Per-process "seen" sets then shrink from n-sized bool
    arrays to committee-rank bitsets (~lambda bits) — the change that
    takes a BA instance from O(n²) to O(n·lambda) simulator memory.

    Soundness: by VRF uniqueness a valid certificate for [(s, pid)]
    exists iff [rank comm pid >= 0] — rejecting non-members before running
    {!committee_val} (which would return [false] for them) changes no
    observable behaviour.  Certificates from claimed members are still
    fully verified by the protocol paths. *)
module Directory : sig
  type t

  type comm
  (** One committee's membership bitset + rank index. *)

  val create : Vrf.Keyring.t -> lambda:int -> t
  val lambda : t -> int

  val committee : t -> s:string -> comm
  (** Lazily computed on first request (n VRF evaluations through the
      keyring's prove cache), then shared. *)

  val rank : comm -> int -> int
  (** Dense index of a member in pid order, [-1] for non-members and for
      pids outside [[0, n)] — the key for committee-rank dedup bitsets
      and validation memos. *)
end

(** Rank-indexed validation memos, shared by a run's n protocol instances.

    A memo maps a phase string to that phase's {!Phase} handle, one per
    run: every instance that names the phase gets the same handle, which
    holds the committee and one verdict slot per member, indexed by
    {!Directory.rank}.  A delivery then reads its slot with no hashing and
    no per-instance copy.  Each slot keeps the content its verdict was
    computed for; callers replay the verdict only when the content they
    hold is that content (physical equality first, then bytes) and
    re-verify otherwise.  A memo is created with its run and never leaves
    it, so a handle is never shared between domains. *)
module Memo : sig
  type 'k slot = Unset | Verdict of { key : 'k; ok : bool }

  type 'k t
  (** Phase string to that phase's handle. *)

  val create : unit -> 'k t
end

(** One phase of a run: its committee and its memo slots, resolved the
    first time a delivery or a step of the phase consults them, not when
    an instance names the phase.

    Membership is a pure function of the keyring and the phase string,
    so resolving later changes no verdict and no output; it changes only
    how many VRF evaluations a run pays for.  A phase no message ever
    reaches (say, a round after the decision) costs nothing.  Resolution
    is idempotent, so the n instances of a run, and the model checker's
    clones, share one handle. *)
module Phase : sig
  type 'k t

  val create : Directory.t -> 'k Memo.t -> s:string -> 'k t
  (** The memo's handle for phase [s], made on the first request;
      evaluates nothing.  Asked for by another directory, it is a handle
      of that directory's own that shares the memo handle's slots when it
      resolves, and raises [Invalid_argument] then if the two committees
      differ in size. *)

  val s : 'k t -> string

  val rank : 'k t -> int -> int
  (** {!Directory.rank} in the phase's committee; resolves it. *)

  val size : 'k t -> int
  (** Committee size; resolves it. *)

  val slots : 'k t -> 'k Memo.slot array
  (** The run-shared verdict slots, one per rank; resolves the phase. *)
end

(** A per-instance dedup set over one phase's committee ranks, holding
    its bit words itself.  It takes no committee-sized space, and
    resolves nothing, until it records its first rank; an empty set reads
    the same sized or not. *)
module Seen : sig
  type t

  val create : unit -> t

  val mem : t -> int -> bool
  (** [false] for a rank the set has no word for, negative ones
      included. *)

  val add : 'k Phase.t -> t -> int -> unit
  (** [add p s r] records rank [r] of phase [p] ([0 <= r < size p]),
      sizing [s] at [p]'s committee first if this is its first rank. *)

  val copy : t -> t

  val to_list : t -> int list
  (** Ascending ranks (state encodings). *)
end
