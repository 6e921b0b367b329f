open Bignum

(* The public key carries its comb so that every verification under it
   runs at fixed-base cost. *)
type public = { pk : Bigint.t; pk_comb : Group.comb }
type secret = { x : Bigint.t; pub : public }
type proof = { gamma : Bigint.t; c : Bigint.t; s : Bigint.t }

let keygen grp ~random =
  let q = Group.q grp in
  let qbytes = (Bigint.bit_length q + 7) / 8 in
  let rec draw () =
    let x = Bigint.erem (Bigint.of_bytes_be (random (qbytes + 8))) q in
    if Bigint.is_zero x then draw () else x
  in
  let x = draw () in
  let pk = Group.comb_pow grp (Group.g_comb grp) x in
  { x; pub = { pk; pk_comb = Group.comb grp pk } }

let public_of_secret sk = sk.pub
let public_element pub = pub.pk

let beta_of_gamma grp gamma = Crypto.Sha256.digest ("dleq-beta:" ^ Group.element_bytes grp gamma)

let challenge grp ~h ~pk ~gamma ~a ~b =
  let eb = Group.element_bytes grp in
  Group.hash_to_scalar grp
    (String.concat "," [ eb (Group.g grp); eb h; eb pk; eb gamma; eb a; eb b ])

let prove grp sk alpha =
  let q = Group.q grp in
  let h = Group.hash_to_group grp alpha in
  (* One comb for h serves both gamma = h^x and the nonce power h^k. *)
  let h_comb = Group.comb grp h in
  let gamma = Group.comb_pow grp h_comb sk.x in
  (* Deterministic nonce (RFC 6979 flavour): k = H(x, h). *)
  let k =
    Group.hash_to_scalar grp
      ("nonce:" ^ Group.scalar_bytes grp sk.x ^ Group.element_bytes grp h)
  in
  let a = Group.comb_pow grp (Group.g_comb grp) k in
  let b = Group.comb_pow grp h_comb k in
  let c = challenge grp ~h ~pk:sk.pub.pk ~gamma ~a ~b in
  let s = Bigint.erem (Bigint.sub k (Bigint.mul c sk.x)) q in
  (beta_of_gamma grp gamma, { gamma; c; s })

let verify grp { pk; pk_comb } alpha (beta, { gamma; c; s }) =
  Group.is_element grp gamma
  && Bigint.sign c >= 0
  && Bigint.compare c (Group.q grp) < 0
  && Bigint.sign s >= 0
  && Bigint.compare s (Group.q grp) < 0
  &&
  let h = Group.hash_to_group grp alpha in
  (* a' = g^s pk^c, b' = h^s gamma^c; accept iff c = H(..., a', b'). *)
  let a' = Group.comb_pow2 grp (Group.g_comb grp) s pk_comb c in
  let b' = Group.pow2 grp h s gamma c in
  Bigint.equal c (challenge grp ~h ~pk ~gamma ~a:a' ~b:b')
  && String.equal beta (beta_of_gamma grp gamma)

let proof_to_bytes grp { gamma; c; s } =
  Group.element_bytes grp gamma ^ Group.scalar_bytes grp c ^ Group.scalar_bytes grp s

(* Schnorr signature: c = H'(pk, g^k, msg), s = k - c x mod q. *)
let sig_challenge grp ~pk ~a msg =
  Group.hash_to_scalar grp
    (String.concat "," [ "schnorr-sig"; Group.element_bytes grp pk; Group.element_bytes grp a; msg ])

let sign grp sk msg =
  let q = Group.q grp in
  let k =
    Group.hash_to_scalar grp ("sig-nonce:" ^ Group.scalar_bytes grp sk.x ^ msg)
  in
  let a = Group.comb_pow grp (Group.g_comb grp) k in
  let c = sig_challenge grp ~pk:sk.pub.pk ~a msg in
  let s = Bigint.erem (Bigint.sub k (Bigint.mul c sk.x)) q in
  Group.scalar_bytes grp c ^ Group.scalar_bytes grp s

let verify_sig grp { pk; pk_comb } msg raw =
  let qb = String.length (Group.scalar_bytes grp Bigint.one) in
  String.length raw = 2 * qb
  &&
  let c = Bigint.of_bytes_be (String.sub raw 0 qb) in
  let s = Bigint.of_bytes_be (String.sub raw qb qb) in
  Bigint.compare c (Group.q grp) < 0
  && Bigint.compare s (Group.q grp) < 0
  &&
  (* a' = g^s pk^c; accept iff c = H'(pk, a', msg). *)
  let a' = Group.comb_pow2 grp (Group.g_comb grp) s pk_comb c in
  Bigint.equal c (sig_challenge grp ~pk ~a:a' msg)

let proof_of_bytes grp raw =
  let pb = String.length (Group.element_bytes grp Bigint.one) in
  let qb = String.length (Group.scalar_bytes grp Bigint.one) in
  if String.length raw <> pb + (2 * qb) then None
  else begin
    let gamma = Bigint.of_bytes_be (String.sub raw 0 pb) in
    let c = Bigint.of_bytes_be (String.sub raw pb qb) in
    let s = Bigint.of_bytes_be (String.sub raw (pb + qb) qb) in
    Some { gamma; c; s }
  end
