(** Arbitrary-precision signed integers.

    Sign-magnitude representation over little-endian limbs in base 2{^26},
    chosen so that limb products fit comfortably in OCaml's 63-bit native
    [int] with room for carries.  This module is the substrate for
    {!Rsa}; it favours clarity over absolute speed, with the one hot path
    (modular exponentiation) delegated to {!Mont}. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t

val of_int : int -> t

val to_int : t -> int
(** @raise Failure if the value does not fit in a native [int]. *)

val of_hex : string -> t
(** Parses an optionally ['-']-prefixed hex string (no ["0x"] prefix). *)

val to_hex : t -> string
(** Lowercase hex, no leading zeros, ['-'] prefix when negative. *)

val of_string : string -> t
(** Parses an optionally ['-']-prefixed decimal string.
    @raise Invalid_argument on empty or non-digit input. *)

val to_string : t -> string
(** Decimal rendering, ['-'] prefix when negative. *)

val of_bytes_be : string -> t
(** Big-endian unsigned bytes to a non-negative integer. *)

val to_bytes_be : ?len:int -> t -> string
(** Big-endian unsigned bytes of a non-negative integer.  With [~len] the
    output is left-padded with zeros to exactly [len] bytes.
    @raise Invalid_argument on negative input or if the value needs more
    than [len] bytes. *)

(** {1 Predicates and comparisons} *)

val sign : t -> int
(** -1, 0 or 1. *)

val is_zero : t -> bool
val is_even : t -> bool
val is_odd : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is truncated division: [(q, r)] with [a = q*b + r] and
    [sign r = sign a] (or [r = 0]), [|r| < |b|].
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val erem : t -> t -> t
(** Euclidean remainder: always in [\[0, |b|)]. *)

val succ : t -> t
val pred : t -> t

val mul_int : t -> int -> t
val add_int : t -> int -> t

val divmod_int : t -> int -> t * int
(** Division by a positive native int that fits in one limb (< 2{^26}). *)

(** {1 Bit operations} *)

val bit_length : t -> int
(** Number of significant bits of the magnitude; 0 for zero. *)

val test_bit : t -> int -> bool
(** Bit of the magnitude. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** {1 Number theory} *)

val modpow : t -> t -> t -> t
(** [modpow base exp m] with [exp >= 0], [m > 0].  Uses windowed Montgomery
    exponentiation when [m] is odd. *)

val modpow_generic : t -> t -> t -> t
(** Square-and-multiply with division-based reduction.  Slow; exported as
    the reference implementation that the Montgomery kernels are
    differentially tested against (and the only path for even moduli). *)

val isqrt : t -> t
(** Integer square root (floor) of a non-negative value.
    @raise Invalid_argument on negative input. *)

val gcd : t -> t -> t
(** Non-negative gcd. *)

val egcd : t -> t -> t * t * t
(** [egcd a b = (g, x, y)] with [g = a*x + b*y], [g = gcd a b >= 0]. *)

val invmod : t -> t -> t option
(** [invmod a m] is the inverse of [a] modulo [m] in [\[0, m)] when
    [gcd a m = 1]. *)

val jacobi : t -> t -> int
(** [jacobi a n] is the Jacobi symbol [(a/n)] in [{-1, 0, 1}] for odd
    [n > 0]; for prime [n] it is the Legendre symbol, so
    [jacobi x n = 1] exactly when [x] is a nonzero square mod [n].
    @raise Invalid_argument if [n] is even or non-positive. *)

(** {1 Montgomery arithmetic with a reusable context}

    Building the context performs the (division-heavy) precomputation once;
    everything after runs on multiply-and-reduce kernels that share one
    per-context scratch buffer (so a context must not be used re-entrantly
    from multiple domains).  Used by {!Rsa} and {!Prime} where the same
    modulus serves many operations.

    [elem] is a residue in the Montgomery domain, tied to the context that
    produced it.  [mul] stays in that domain, and squares too: [mul a a]
    beats a dedicated squaring kernel at every size this code uses (161,
    256 and 512 bits), so there is none.  [pow] uses a sliding-window ladder
    with a precomputed odd-power table (window width adapted to the
    exponent size); [pow_binary] is the plain square-and-multiply ladder
    kept as the differential reference.  [pow2] and the comb functions
    serve fixed and repeated bases (the DLEQ VRF's [g], public keys and
    per-proof [h]).

    Every exponentiation takes a non-negative exponent and raises
    [Invalid_argument] on a negative one. *)

module Mont : sig
  type bigint := t

  type t

  type elem
  (** A fully reduced residue in Montgomery form. *)

  val create : bigint -> t
  (** @raise Invalid_argument if the modulus is even or non-positive. *)

  val modulus : t -> bigint

  val to_mont : t -> bigint -> elem
  (** Reduces mod m first, so any non-negative value is accepted. *)

  val of_mont : t -> elem -> bigint

  val mul : t -> elem -> elem -> elem

  val elem_equal : elem -> elem -> bool
  (** Equality mod m (residues are canonical). *)

  val powm : t -> elem -> bigint -> elem
  (** [powm ctx b e] with [b] already in Montgomery form, [e >= 0];
      result stays in Montgomery form. *)

  val pow2 : t -> elem -> bigint -> elem -> bigint -> elem
  (** [pow2 ctx b1 e1 b2 e2] is [b1^e1 * b2^e2] by Straus's method: the
      two exponents' sliding windows share one squaring chain. *)

  val pow : t -> bigint -> bigint -> bigint
  val pow_binary : t -> bigint -> bigint -> bigint

  type comb
  (** A four-row Lim-Lee fixed-base comb: 16 precomputed elements for one
      base, serving every exponent of at most [comb_capacity] bits with
      [comb_capacity / 4] squarings. *)

  val comb : t -> elem -> bits:int -> comb
  (** [comb ctx b ~bits] builds the table of [b] for exponents of up to
      [bits] bits (rounded up to a multiple of 4).
      @raise Invalid_argument if [bits < 1]. *)

  val comb_capacity : comb -> int
  (** The widest exponent the comb accepts, in bits. *)

  val comb_pow : t -> comb -> bigint -> elem
  (** [comb_pow ctx c e] is [b^e] for the comb's base [b].
      @raise Invalid_argument if [e] is negative or wider than the comb. *)

  val comb_pow2 : t -> comb -> bigint -> comb -> bigint -> elem
  (** [comb_pow2 ctx c1 e1 c2 e2] is [b1^e1 * b2^e2] on one shared
      squaring chain.
      @raise Invalid_argument as [comb_pow], or if the two combs were
      built for different widths. *)
end

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
