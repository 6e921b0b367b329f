(** Schnorr groups: the prime-order subgroup of Z{_p}{^*} with
    [p = 2q + 1] a safe prime.

    Substrate for the {!Dleq_vrf} backend.  Group generation is
    deterministic from a seed (safe-prime search driven by an
    HMAC-DRBG), so all processes of a simulation share one group as part
    of the trusted setup.  Element size is configurable; simulation
    defaults are small, the construction is size-agnostic. *)

type t
(** Group description: modulus [p], subgroup order [q], generator [g]. *)

val generate : ?qbits:int -> seed:string -> unit -> t
(** [generate ~qbits ~seed ()] finds a safe prime [p = 2q + 1] with [q]
    of [qbits] bits (default 160) and a generator of the order-[q]
    subgroup.  Deterministic in [seed]. *)

val p : t -> Bignum.Bigint.t
val q : t -> Bignum.Bigint.t
val g : t -> Bignum.Bigint.t

val pow : t -> Bignum.Bigint.t -> Bignum.Bigint.t -> Bignum.Bigint.t
(** [pow t base e] is [base^e mod p] (Montgomery-accelerated). *)

val pow2 :
  t -> Bignum.Bigint.t -> Bignum.Bigint.t -> Bignum.Bigint.t -> Bignum.Bigint.t -> Bignum.Bigint.t
(** [pow2 t b1 e1 b2 e2] is [b1^e1 * b2^e2 mod p] on one squaring chain
    (Straus). *)

(** {1 Fixed-base combs}

    A comb precomputes 16 elements of one base so that every later
    exponentiation of that base costs a quarter of the squarings.  Combs
    take scalar exponents in [\[0, 2^k)] where [k] is [q]'s bit length
    rounded up to a multiple of 4. *)

type comb

val comb : t -> Bignum.Bigint.t -> comb
(** Builds the comb of an element. *)

val g_comb : t -> comb
(** The generator's comb, built by {!generate}. *)

val comb_pow : t -> comb -> Bignum.Bigint.t -> Bignum.Bigint.t
(** [comb_pow t c e] is [b^e mod p] for the comb's base [b].
    @raise Invalid_argument on a negative or over-wide exponent. *)

val comb_pow2 : t -> comb -> Bignum.Bigint.t -> comb -> Bignum.Bigint.t -> Bignum.Bigint.t
(** [comb_pow2 t c1 e1 c2 e2] is [b1^e1 * b2^e2 mod p] on one shared
    squaring chain. *)

val is_element : t -> Bignum.Bigint.t -> bool
(** Member of the order-[q] subgroup (and not the identity). *)

val hash_to_group : t -> string -> Bignum.Bigint.t
(** Maps a byte string to a subgroup element by cofactor exponentiation
    of a full-domain hash: [H(s)^2 mod p], rejecting degenerate outputs
    by re-hashing. *)

val hash_to_scalar : t -> string -> Bignum.Bigint.t
(** Maps a byte string to [Z_q]. *)

val element_bytes : t -> Bignum.Bigint.t -> string
(** Fixed-width big-endian encoding of an element (for hashing/wire). *)

val scalar_bytes : t -> Bignum.Bigint.t -> string
