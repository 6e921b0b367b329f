(** DDH-based VRF over a Schnorr group — the classic construction
    underlying RFC 9381's ECVRF, instantiated in Z{_p}{^*}.

    For secret key [x] with public key [pk = g^x]:
    - [h = hash_to_group(alpha)], [gamma = h^x];
    - the proof is a Chaum-Pedersen DLEQ showing
      [log_g pk = log_h gamma]: with nonce [k],
      [c = H(g, h, pk, gamma, g^k, h^k)] and [s = k - c x mod q];
    - the output is [beta = H(gamma)].

    Pseudorandomness rests on DDH, uniqueness on [gamma] being determined
    by [(h, x)], verifiability on the DLEQ proof.  The nonce is derived
    deterministically (RFC-6979 style) so proving is deterministic, which
    the simulation's replayability relies on. *)

type secret

type public
(** [g^x], with its fixed-base comb (16 group elements) built at
    {!keygen}. *)

type proof = {
  gamma : Bignum.Bigint.t;
  c : Bignum.Bigint.t;
  s : Bignum.Bigint.t;
}

val keygen : Group.t -> random:(int -> string) -> secret
val public_of_secret : secret -> public

val public_element : public -> Bignum.Bigint.t
(** The group element [g^x]. *)

val prove : Group.t -> secret -> string -> string * proof
(** [prove grp sk alpha] is [(beta, pi)]; [beta] is 32 bytes. *)

val verify : Group.t -> public -> string -> string * proof -> bool
(** Checks the DLEQ proof and that [beta = H(gamma)]. *)

val proof_to_bytes : Group.t -> proof -> string
(** Wire encoding (gamma ‖ c ‖ s, fixed widths). *)

val proof_of_bytes : Group.t -> string -> proof option

(** {1 Schnorr signatures}

    Ordinary signatures from the same key material (used for the
    approver's signed echoes when the keyring runs this backend);
    domain-separated from the VRF by the challenge derivation. *)

val sign : Group.t -> secret -> string -> string
val verify_sig : Group.t -> public -> string -> string -> bool
