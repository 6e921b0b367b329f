(** Re-exports of the backend building blocks (usable directly). *)

module Group : module type of Group
module Dleq_vrf : module type of Dleq_vrf

(** Verifiable random functions and the process key directory.

    The paper assumes a trusted PKI in which every process [p_i] can
    evaluate [VRF_i(x) = (y, pi)] and anyone can check
    [VRF-Ver_pk(x, (y, pi))].  The default backend is RSA-FDH-VRF in the
    style of RFC 9381: the proof is the unique RSA-FDH signature of the
    input and the output [beta] is a hash of the proof.  Pseudorandomness
    follows from FDH, verifiability from RSA verification, and uniqueness
    from RSA being a permutation.

    A [Mock] backend (keyed-hash oracle) is provided for very large
    simulations; it preserves determinism, uniqueness and uniformity but
    verification relies on the simulator holding the oracle key.  Every
    protocol-logic experiment also runs under the RSA backend (see
    DESIGN.md, substitution table). *)

type output = {
  beta : string;   (** 32-byte pseudorandom output. *)
  proof : string;  (** proof that [beta] was computed correctly. *)
}

val compare_beta : string -> string -> int
(** Total order on outputs as unsigned big-endian integers (byte-wise
    lexicographic order, which coincides for fixed-length strings). *)

val beta_bits : string -> int -> int64
(** [beta_bits beta k] extracts the first [k <= 63] bits of [beta] as a
    non-negative integer — used for committee-membership thresholds. *)

val beta_lsb : string -> int
(** Least-significant bit of [beta]: the coin value of Algorithms 1-2. *)

type backend =
  | Rsa_fdh of { bits : int }  (** real VRF; [bits] = RSA modulus size. *)
  | Dleq of { qbits : int }
      (** real VRF; the DDH-based Chaum-Pedersen construction over a
          Schnorr group with a [qbits]-bit subgroup (see {!Dleq_vrf}) —
          structurally RFC 9381's ECVRF in a multiplicative group. *)
  | Mock                       (** simulation oracle for large-n sweeps. *)

module Keyring : sig
  (** Key material for the [n] processes of one system instance.

      In a deployment each process would hold only its own secret and the
      public directory; the simulator centralises them for convenience.
      Keys are derived deterministically from [seed] (per-process HMAC-DRBG
      personalisation), and generated lazily on first use. *)

  type t

  val create : ?backend:backend -> ?cache_bound:int -> n:int -> seed:string -> unit -> t
  (** Default backend is [Rsa_fdh { bits = 256 }] — small keys keep
      simulation key-setup cheap while exercising the full code path.

      [cache_bound] (default [65536], [0] disables caching) bounds the
      verification memo cache: {!verify} and {!verify_sig} are pure
      functions of (signer, message, proof bytes), so their boolean
      outcome is memoized — every receiver of a broadcast share re-checks
      the same certificate, and the memo collapses those [O(n)] duplicate
      verifications to one.  Entries beyond the bound evict the oldest
      insertion (FIFO), keeping long campaigns at bounded memory.
      Caching negative outcomes too means a forged proof keeps failing
      everywhere; see DESIGN.md "cache soundness".
      @raise Invalid_argument on negative [cache_bound] or [n <= 0]. *)

  val clone : t -> t
  (** A fresh keyring with the same (backend, n, seed, cache bound) and no
      shared mutable state: keys, group and caches are regenerated
      (deterministically) on demand.  Because every piece of key material
      derives from [seed], a clone is observationally identical to the
      original — this is how {!Exec}-style parallel campaigns give each
      worker domain its own key directory (and thereby its own Montgomery
      scratch buffers, which are not re-entrant across domains). *)

  val n : t -> int
  val backend : t -> backend

  type cache_stats = {
    size : int;    (** live entries in the verify memo. *)
    bound : int;   (** configured capacity ([0] = caching disabled). *)
    hits : int;
    misses : int;  (** full verifications actually performed. *)
  }

  val verify_cache_stats : t -> cache_stats

  val evaluations : t -> int
  (** Distinct VRF evaluations so far: the size of the (unbounded) prove
      cache, which {!prove} fills with one entry per distinct
      (process, input). *)

  val warm : t -> unit
  (** Eagerly generates all [n] keys (and the shared group for the Dleq
      backend).  Keys are otherwise generated lazily on first use, which
      pollutes timing sweeps: call [warm] first so measurements see only
      protocol cost.  Idempotent and semantically invisible. *)

  val prove : t -> int -> string -> output
  (** [prove kr i alpha] evaluates [VRF_i(alpha)]. *)

  val verify : t -> signer:int -> string -> output -> bool
  (** [verify kr ~signer alpha out] checks the proof against [signer]'s
      public key and that [beta] matches the proof. *)

  val sign : t -> int -> string -> string
  (** Ordinary digital signature by process [i] (domain-separated from the
      VRF so signing cannot forge VRF proofs and vice versa). *)

  val verify_sig : t -> signer:int -> string -> string -> bool

  val public_fingerprint : t -> int -> string
  (** Identifies process [i]'s public key (32 bytes). *)
end
