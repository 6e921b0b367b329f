open Bignum

type comb = Bigint.Mont.comb

type t = {
  p : Bigint.t;
  q : Bigint.t;
  g : Bigint.t;
  mont : Bigint.Mont.t;  (* reduction context for the hot exponentiations *)
  g_comb : comb;
  p_bytes : int;
  q_bytes : int;
}

let p t = t.p
let q t = t.q
let g t = t.g
let g_comb t = t.g_comb

let pow t base e = Bigint.Mont.pow t.mont base e

let pow2 t b1 e1 b2 e2 =
  Bigint.Mont.(of_mont t.mont (pow2 t.mont (to_mont t.mont b1) e1 (to_mont t.mont b2) e2))

(* Exponents are scalars, so every comb is as wide as q. *)
let make_comb mont q x = Bigint.Mont.(comb mont (to_mont mont x) ~bits:(Bigint.bit_length q))
let comb t x = make_comb t.mont t.q x
let comb_pow t c e = Bigint.Mont.(of_mont t.mont (comb_pow t.mont c e))
let comb_pow2 t c1 e1 c2 e2 = Bigint.Mont.(of_mont t.mont (comb_pow2 t.mont c1 e1 c2 e2))

let generate ?(qbits = 160) ~seed () =
  if qbits < 32 then invalid_arg "Group.generate: qbits too small";
  let drbg = Crypto.Drbg.create ~personalization:"schnorr-group" seed in
  let random n = Crypto.Drbg.generate drbg n in
  (* Safe-prime search: q prime with p = 2q + 1 also prime.  Expected
     O(qbits) candidate primes; fine at simulation sizes. *)
  let rec search () =
    let q = Prime.gen_prime ~bits:qbits ~random in
    let p = Bigint.succ (Bigint.shift_left q 1) in
    if Prime.is_probable_prime ~random p then (p, q) else search ()
  in
  let p, q = search () in
  let mont = Bigint.Mont.create p in
  (* Any h with h^2 <> 1 gives a generator g = h^2 of the order-q
     subgroup (cofactor 2). *)
  let rec find_g () =
    let h = Bigint.erem (Bigint.of_bytes_be (random ((qbits / 8) + 1))) p in
    let g = Bigint.Mont.pow mont h Bigint.two in
    if Bigint.equal g Bigint.one || Bigint.is_zero g then find_g () else g
  in
  let g = find_g () in
  {
    p;
    q;
    g;
    mont;
    g_comb = make_comb mont q g;
    p_bytes = (Bigint.bit_length p + 7) / 8;
    q_bytes = (Bigint.bit_length q + 7) / 8;
  }

(* For prime p = 2q + 1 the order-q subgroup is exactly the quadratic
   residues, and Euler's criterion x^q = (x/p) mod p makes the Legendre
   symbol test equal to [x^q = 1] for every 0 < x < p, at a fraction of
   an exponentiation's cost. *)
let is_element t x =
  Bigint.sign x > 0
  && Bigint.compare x t.p < 0
  && (not (Bigint.equal x Bigint.one))
  && Int.equal (Bigint.jacobi x t.p) 1

let element_bytes t x = Bigint.to_bytes_be ~len:t.p_bytes x
let scalar_bytes t x = Bigint.to_bytes_be ~len:t.q_bytes x

let hash_to_group t s =
  (* Expand to p's width, reduce mod p, square (cofactor clearing); the
     result is uniform-ish over the subgroup.  Re-hash the (negligible)
     degenerate cases. *)
  let rec go counter =
    let raw = Rsa.mgf1 (Printf.sprintf "h2g-%d:%s" counter s) (t.p_bytes + 8) in
    let u = Bigint.erem (Bigint.of_bytes_be raw) t.p in
    let e = pow t u Bigint.two in
    if Bigint.is_zero e || Bigint.equal e Bigint.one then go (counter + 1) else e
  in
  go 0

let hash_to_scalar t s =
  let raw = Rsa.mgf1 ("h2s:" ^ s) (t.q_bytes + 8) in
  Bigint.erem (Bigint.of_bytes_be raw) t.q
