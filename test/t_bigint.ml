(* Bigint: ring axioms, division laws, bit operations, number theory —
   unit cases on interesting boundaries plus qcheck properties. *)

open Bignum

let bi = Bigint.of_int

(* Random Bigint generator: up to ~260 bits, signed. *)
let gen_bigint =
  QCheck.Gen.(
    let* nbytes = 0 -- 32 in
    let* bytes = string_size ~gen:char (return nbytes) in
    let* neg = bool in
    let v = Bigint.of_bytes_be bytes in
    return (if neg then Bigint.neg v else v))

let arb_bigint = QCheck.make ~print:Bigint.to_hex gen_bigint

let gen_positive =
  QCheck.Gen.(
    let* v = gen_bigint in
    let v = Bigint.abs v in
    return (if Bigint.is_zero v then Bigint.one else v))

let arb_positive = QCheck.make ~print:Bigint.to_hex gen_positive

let beq = Alcotest.testable (Fmt.of_to_string Bigint.to_hex) Bigint.equal

let test_of_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) "roundtrip" n (Bigint.to_int (bi n)))
    [
      0; 1; -1; 42; -42; 1 lsl 25; (1 lsl 26) - 1; 1 lsl 26; 1 lsl 52; -(1 lsl 52); max_int / 2;
      max_int; min_int + 1; min_int;
    ]

let test_min_int () =
  (* [abs min_int = min_int] in OCaml, so [of_int] needs its own branch:
     the magnitude 2^(int_size-1) is not representable as a positive int. *)
  let v = bi min_int in
  Alcotest.(check int) "sign" (-1) (Bigint.sign v);
  Alcotest.check beq "value = -2^(int_size-1)"
    (Bigint.neg (Bigint.shift_left Bigint.one (Sys.int_size - 1)))
    v;
  Alcotest.(check int) "to_int roundtrip" min_int (Bigint.to_int v);
  Alcotest.check beq "succ" (bi (min_int + 1)) (Bigint.succ v);
  Alcotest.check beq "arith: min_int = -(min_int+1) - 1 negated"
    v
    (Bigint.neg (Bigint.succ (bi max_int)));
  (* |min_int| itself does not fit in an int, so to_int must refuse it. *)
  Alcotest.check_raises "abs min_int overflows to_int" (Failure "Bigint.to_int: overflow")
    (fun () -> ignore (Bigint.to_int (Bigint.abs v)))

let test_to_int_overflow () =
  let big = Bigint.shift_left Bigint.one 80 in
  Alcotest.check_raises "overflow" (Failure "Bigint.to_int: overflow") (fun () ->
      ignore (Bigint.to_int big))

let test_hex_roundtrip () =
  List.iter
    (fun h -> Alcotest.(check string) "hex" h (Bigint.to_hex (Bigint.of_hex h)))
    [ "0"; "1"; "ff"; "100"; "deadbeef"; "-deadbeef"; "123456789abcdef0123456789abcdef" ]

let test_bytes_roundtrip () =
  let v = Bigint.of_hex "0102030405060708090a" in
  Alcotest.(check string) "to_bytes" "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a" (Bigint.to_bytes_be v);
  Alcotest.check beq "of_bytes" v (Bigint.of_bytes_be (Bigint.to_bytes_be v));
  Alcotest.(check int) "padded length" 16 (String.length (Bigint.to_bytes_be ~len:16 v));
  Alcotest.check_raises "too small len" (Invalid_argument "Bigint.to_bytes_be: value too large for len")
    (fun () -> ignore (Bigint.to_bytes_be ~len:2 v))

let test_add_sub_basics () =
  Alcotest.check beq "1+1" (bi 2) (Bigint.add Bigint.one Bigint.one);
  Alcotest.check beq "1-1" Bigint.zero (Bigint.sub Bigint.one Bigint.one);
  Alcotest.check beq "0-5" (bi (-5)) (Bigint.sub Bigint.zero (bi 5));
  Alcotest.check beq "neg+pos" (bi 2) (Bigint.add (bi (-3)) (bi 5))

let test_carry_chain () =
  (* 2^260 - 1 + 1 = 2^260: exercises full carry propagation. *)
  let ones = Bigint.pred (Bigint.shift_left Bigint.one 260) in
  Alcotest.check beq "carry chain" (Bigint.shift_left Bigint.one 260) (Bigint.succ ones)

let test_mul_known () =
  Alcotest.check beq "12*12" (bi 144) (Bigint.mul (bi 12) (bi 12));
  Alcotest.check beq "sign" (bi (-144)) (Bigint.mul (bi (-12)) (bi 12));
  (* (2^130 + 1)^2 = 2^260 + 2^131 + 1 *)
  let x = Bigint.succ (Bigint.shift_left Bigint.one 130) in
  let expect =
    Bigint.add
      (Bigint.add (Bigint.shift_left Bigint.one 260) (Bigint.shift_left Bigint.one 131))
      Bigint.one
  in
  Alcotest.check beq "big square" expect (Bigint.mul x x)

let test_divmod_signs () =
  (* Truncated division: sign of remainder = sign of dividend. *)
  let check_div a b q r =
    let q', r' = Bigint.divmod (bi a) (bi b) in
    Alcotest.check beq (Printf.sprintf "%d/%d q" a b) (bi q) q';
    Alcotest.check beq (Printf.sprintf "%d/%d r" a b) (bi r) r'
  in
  check_div 7 2 3 1;
  check_div (-7) 2 (-3) (-1);
  check_div 7 (-2) (-3) 1;
  check_div (-7) (-2) 3 (-1)

let test_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bigint.divmod Bigint.one Bigint.zero))

let test_erem_nonneg () =
  Alcotest.check beq "erem -7 3" (bi 2) (Bigint.erem (bi (-7)) (bi 3));
  Alcotest.check beq "erem 7 3" (bi 1) (Bigint.erem (bi 7) (bi 3))

let test_divmod_int () =
  let v = Bigint.of_hex "123456789abcdef" in
  let q, r = Bigint.divmod_int v 1000 in
  let q', r' = Bigint.divmod v (bi 1000) in
  Alcotest.check beq "q matches" q' q;
  Alcotest.check beq "r matches" r' (bi r)

let test_bit_length () =
  Alcotest.(check int) "0" 0 (Bigint.bit_length Bigint.zero);
  Alcotest.(check int) "1" 1 (Bigint.bit_length Bigint.one);
  Alcotest.(check int) "255" 8 (Bigint.bit_length (bi 255));
  Alcotest.(check int) "256" 9 (Bigint.bit_length (bi 256));
  Alcotest.(check int) "2^100" 101 (Bigint.bit_length (Bigint.shift_left Bigint.one 100))

let test_test_bit () =
  let v = bi 0b1010 in
  List.iter
    (fun (i, b) -> Alcotest.(check bool) (Printf.sprintf "bit %d" i) b (Bigint.test_bit v i))
    [ (0, false); (1, true); (2, false); (3, true); (4, false); (100, false) ]

let test_shifts () =
  let v = Bigint.of_hex "123456789" in
  Alcotest.check beq "shift roundtrip" v (Bigint.shift_right (Bigint.shift_left v 77) 77);
  Alcotest.check beq "shift_right drops" (bi 0x123) (Bigint.shift_right (bi 0x1234) 4);
  Alcotest.check beq "shift to zero" Bigint.zero (Bigint.shift_right (bi 0x1234) 100)

let test_modpow_known () =
  (* Cross-checked with python pow(). *)
  Alcotest.check beq "2^100 mod 1000003" (bi 253109)
    (Bigint.modpow Bigint.two (bi 100) (bi 1000003));
  Alcotest.check beq "7^50 mod 10^6 (even modulus)" (bi 251249)
    (Bigint.modpow (bi 7) (bi 50) (bi 1000000));
  Alcotest.check beq "x^0 = 1" Bigint.one (Bigint.modpow (bi 5) Bigint.zero (bi 7));
  Alcotest.check beq "mod 1 = 0" Bigint.zero (Bigint.modpow (bi 5) (bi 3) Bigint.one)

let test_modpow_fermat () =
  (* a^(p-1) = 1 mod p for prime p = 2^61 - 1. *)
  let p = Bigint.pred (Bigint.shift_left Bigint.one 61) in
  List.iter
    (fun a ->
      Alcotest.check beq
        (Printf.sprintf "fermat a=%d" a)
        Bigint.one
        (Bigint.modpow (bi a) (Bigint.pred p) p))
    [ 2; 3; 65537 ]

let test_gcd () =
  Alcotest.check beq "gcd 12 18" (bi 6) (Bigint.gcd (bi 12) (bi 18));
  Alcotest.check beq "gcd 0 5" (bi 5) (Bigint.gcd Bigint.zero (bi 5));
  Alcotest.check beq "gcd negatives" (bi 6) (Bigint.gcd (bi (-12)) (bi 18))

let test_egcd_identity () =
  let a = Bigint.of_hex "123456789abcdef" and b = Bigint.of_hex "fedcba987" in
  let g, x, y = Bigint.egcd a b in
  Alcotest.check beq "bezout" g (Bigint.add (Bigint.mul a x) (Bigint.mul b y))

let test_invmod () =
  (match Bigint.invmod (bi 3) (bi 7) with
  | Some inv -> Alcotest.check beq "3^-1 mod 7" (bi 5) inv
  | None -> Alcotest.fail "should be invertible");
  Alcotest.(check bool) "non-invertible" true (Bigint.invmod (bi 6) (bi 9) = None)

let test_mont_matches_generic () =
  (* Montgomery and generic modpow agree on an odd modulus. *)
  let m = Bigint.of_hex "f123456789abcdef123456789abcdef1" in
  let ctx = Bigint.Mont.create m in
  let b = Bigint.of_hex "abcdef" and e = bi 12345 in
  Alcotest.check beq "mont = modpow" (Bigint.modpow b e m) (Bigint.Mont.pow ctx b e)

let test_mont_rejects_even () =
  Alcotest.check_raises "even modulus" (Invalid_argument "Bigint: Montgomery requires odd modulus")
    (fun () -> ignore (Bigint.Mont.create (bi 10)))

let test_mont_rejects_negative_exponent () =
  (* Every Mont entry point reads the exponent's magnitude, so a negative
     exponent must be refused rather than silently treated as |e|. *)
  let m = Bigint.of_hex "f123456789abcdef123456789abcdef1" in
  let ctx = Bigint.Mont.create m in
  let b = Bigint.Mont.to_mont ctx (bi 2) in
  let c = Bigint.Mont.comb ctx b ~bits:16 in
  let e = bi 5 and ne = bi (-5) in
  let rejects fn f =
    Alcotest.check_raises fn (Invalid_argument ("Bigint.Mont." ^ fn ^ ": negative exponent"))
      (fun () -> ignore (f ()))
  in
  rejects "pow" (fun () -> Bigint.Mont.pow ctx (bi 2) ne);
  rejects "pow_binary" (fun () -> Bigint.Mont.pow_binary ctx (bi 2) ne);
  rejects "powm" (fun () -> Bigint.Mont.powm ctx b ne);
  rejects "pow2" (fun () -> Bigint.Mont.pow2 ctx b ne b e);
  rejects "pow2" (fun () -> Bigint.Mont.pow2 ctx b e b ne);
  rejects "comb_pow" (fun () -> Bigint.Mont.comb_pow ctx c ne);
  rejects "comb_pow2" (fun () -> Bigint.Mont.comb_pow2 ctx c ne c e);
  rejects "comb_pow2" (fun () -> Bigint.Mont.comb_pow2 ctx c e c ne);
  Alcotest.check_raises "modpow" (Invalid_argument "Bigint.modpow: negative exponent") (fun () ->
      ignore (Bigint.modpow (bi 2) ne m))

let test_comb_width () =
  let m = Bigint.of_hex "f123456789abcdef123456789abcdef1" in
  let ctx = Bigint.Mont.create m in
  let b = Bigint.Mont.to_mont ctx (bi 3) in
  (* 7 bits round up to two columns of four rows *)
  let c = Bigint.Mont.comb ctx b ~bits:7 in
  Alcotest.(check int) "capacity" 8 (Bigint.Mont.comb_capacity c);
  Alcotest.check beq "widest exponent accepted"
    (Bigint.Mont.pow ctx (bi 3) (bi 255))
    (Bigint.Mont.of_mont ctx (Bigint.Mont.comb_pow ctx c (bi 255)));
  let wide = "Bigint.Mont.comb_pow: exponent wider than the comb" in
  Alcotest.check_raises "2^capacity rejected" (Invalid_argument wide) (fun () ->
      ignore (Bigint.Mont.comb_pow ctx c (bi 256)));
  Alcotest.check_raises "two-base: either exponent"
    (Invalid_argument "Bigint.Mont.comb_pow2: exponent wider than the comb") (fun () ->
      ignore (Bigint.Mont.comb_pow2 ctx c (bi 1) c (bi 256)));
  Alcotest.check_raises "two-base: unequal widths"
    (Invalid_argument "Bigint.Mont.comb_pow2: combs of different widths") (fun () ->
      ignore (Bigint.Mont.comb_pow2 ctx c (bi 1) (Bigint.Mont.comb ctx b ~bits:16) (bi 1)));
  Alcotest.check_raises "zero bits" (Invalid_argument "Bigint.Mont.comb: bits must be positive")
    (fun () -> ignore (Bigint.Mont.comb ctx b ~bits:0))

let test_powm_allocation () =
  (* The kernels write into preallocated limbs, so a warm powm allocates
     its odd-power table, scan cursor and accumulator and nothing per
     bit.  Both exponents pick window width 4, so the allocation must not
     grow from 200 to 2000 bits. *)
  let d = Crypto.Drbg.create "powm-alloc" in
  let random n = Crypto.Drbg.generate d n in
  let m = Bigint.succ (Bigint.shift_left (Bigint.of_bytes_be (random 63)) 1) in
  let ctx = Bigint.Mont.create m in
  let b = Bigint.Mont.to_mont ctx (Bigint.of_bytes_be (random 40)) in
  let exponent bits =
    Bigint.add (Bigint.shift_left Bigint.one (bits - 1))
      (Bigint.shift_right (Bigint.of_bytes_be (random (bits / 8))) 1)
  in
  let words e =
    ignore (Bigint.Mont.powm ctx b e);
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Bigint.Mont.powm ctx b e));
    Gc.minor_words () -. w0
  in
  let e200 = exponent 200 and e2000 = exponent 2000 in
  Alcotest.(check int) "200-bit exponent" 200 (Bigint.bit_length e200);
  Alcotest.(check int) "2000-bit exponent" 2000 (Bigint.bit_length e2000);
  Alcotest.(check (float 0.)) "minor words independent of exponent size" (words e200)
    (words e2000)

let test_jacobi_known () =
  (* (a/15) = (a/3)(a/5) *)
  List.iter
    (fun (a, j) -> Alcotest.(check int) (Printf.sprintf "(%d/15)" a) j (Bigint.jacobi (bi a) (bi 15)))
    [ (0, 0); (1, 1); (2, 1); (4, 1); (5, 0); (7, -1); (-1, -1); (14, -1); (13, -1) ];
  Alcotest.(check int) "(2/p), p = 2^61-1 = 7 mod 8" 1
    (Bigint.jacobi Bigint.two (Bigint.pred (Bigint.shift_left Bigint.one 61)));
  Alcotest.(check int) "(-1/p), p = 2^127-1 = 3 mod 4" (-1)
    (Bigint.jacobi (bi (-1)) (Bigint.pred (Bigint.shift_left Bigint.one 127)));
  Alcotest.check_raises "even modulus"
    (Invalid_argument "Bigint.jacobi: modulus must be odd and positive") (fun () ->
      ignore (Bigint.jacobi (bi 3) (bi 10)))

let test_compare_total_order () =
  let vals = [ bi (-10); bi (-1); Bigint.zero; Bigint.one; bi 10; Bigint.shift_left Bigint.one 80 ] in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          Alcotest.(check int) "order" (compare i j) (Bigint.compare a b))
        vals)
    vals

let test_decimal_known () =
  Alcotest.(check string) "zero" "0" (Bigint.to_string Bigint.zero);
  Alcotest.(check string) "small" "12345" (Bigint.to_string (bi 12345));
  Alcotest.(check string) "negative" "-12345" (Bigint.to_string (bi (-12345)));
  (* 2^128, cross-checked externally *)
  Alcotest.(check string) "2^128" "340282366920938463463374607431768211456"
    (Bigint.to_string (Bigint.shift_left Bigint.one 128));
  Alcotest.check beq "parse 2^128" (Bigint.shift_left Bigint.one 128)
    (Bigint.of_string "340282366920938463463374607431768211456")

let test_decimal_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty") (fun () ->
      ignore (Bigint.of_string ""));
  Alcotest.check_raises "non-digit" (Invalid_argument "Bigint.of_string: non-digit character")
    (fun () -> ignore (Bigint.of_string "12x3"))

let test_isqrt_known () =
  Alcotest.check beq "sqrt 0" Bigint.zero (Bigint.isqrt Bigint.zero);
  Alcotest.check beq "sqrt 1" Bigint.one (Bigint.isqrt Bigint.one);
  Alcotest.check beq "sqrt 15" (bi 3) (Bigint.isqrt (bi 15));
  Alcotest.check beq "sqrt 16" (bi 4) (Bigint.isqrt (bi 16));
  Alcotest.check beq "sqrt 17" (bi 4) (Bigint.isqrt (bi 17));
  (* sqrt(2^200) = 2^100 *)
  Alcotest.check beq "sqrt 2^200" (Bigint.shift_left Bigint.one 100)
    (Bigint.isqrt (Bigint.shift_left Bigint.one 200));
  Alcotest.check_raises "negative" (Invalid_argument "Bigint.isqrt: negative") (fun () ->
      ignore (Bigint.isqrt (bi (-1))))

let test_karatsuba_consistency () =
  (* Operands big enough to cross the Karatsuba threshold (~830 bits). *)
  let d = Crypto.Drbg.create "karatsuba" in
  for _ = 1 to 10 do
    let a = Bigint.of_bytes_be (Crypto.Drbg.generate d 200) in
    let b = Bigint.of_bytes_be (Crypto.Drbg.generate d 150) in
    (* (a+1)(b+1) = ab + a + b + 1 links the big product to smaller ones. *)
    let lhs = Bigint.mul (Bigint.succ a) (Bigint.succ b) in
    let rhs = Bigint.add (Bigint.mul a b) (Bigint.add a (Bigint.succ b)) in
    Alcotest.check beq "karatsuba identity" lhs rhs
  done

(* ---------------- qcheck properties ---------------- *)

let q name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:300 gen prop)

let qsuite =
  [
    q "add commutative" QCheck.(pair arb_bigint arb_bigint) (fun (a, b) ->
        Bigint.equal (Bigint.add a b) (Bigint.add b a));
    q "add associative" QCheck.(triple arb_bigint arb_bigint arb_bigint) (fun (a, b, c) ->
        Bigint.equal (Bigint.add (Bigint.add a b) c) (Bigint.add a (Bigint.add b c)));
    q "sub inverse" QCheck.(pair arb_bigint arb_bigint) (fun (a, b) ->
        Bigint.equal a (Bigint.add (Bigint.sub a b) b));
    q "mul commutative" QCheck.(pair arb_bigint arb_bigint) (fun (a, b) ->
        Bigint.equal (Bigint.mul a b) (Bigint.mul b a));
    q "mul distributes" QCheck.(triple arb_bigint arb_bigint arb_bigint) (fun (a, b, c) ->
        Bigint.equal (Bigint.mul a (Bigint.add b c)) (Bigint.add (Bigint.mul a b) (Bigint.mul a c)));
    q "divmod law" QCheck.(pair arb_bigint arb_positive) (fun (a, b) ->
        let qt, r = Bigint.divmod a b in
        Bigint.equal a (Bigint.add (Bigint.mul qt b) r)
        && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0);
    q "erem in range" QCheck.(pair arb_bigint arb_positive) (fun (a, b) ->
        let r = Bigint.erem a b in
        Bigint.sign r >= 0 && Bigint.compare r b < 0);
    q "hex roundtrip" arb_bigint (fun a -> Bigint.equal a (Bigint.of_hex (Bigint.to_hex a)));
    q "decimal roundtrip" arb_bigint (fun a ->
        Bigint.equal a (Bigint.of_string (Bigint.to_string a)));
    q "decimal matches int" QCheck.(int_range (-1000000000) 1000000000) (fun k ->
        Bigint.to_string (bi k) = string_of_int k);
    q "isqrt bounds" arb_positive (fun a ->
        let r = Bigint.isqrt a in
        Bigint.compare (Bigint.mul r r) a <= 0
        && Bigint.compare (Bigint.mul (Bigint.succ r) (Bigint.succ r)) a > 0);
    q "karatsuba = schoolbook semantics (via distributivity at large sizes)"
      QCheck.(pair small_int small_int)
      (fun (s1, s2) ->
        let d = Crypto.Drbg.create (Printf.sprintf "kq-%d-%d" s1 s2) in
        let a = Bigint.of_bytes_be (Crypto.Drbg.generate d 140) in
        let b = Bigint.of_bytes_be (Crypto.Drbg.generate d 130) in
        let c = Bigint.of_bytes_be (Crypto.Drbg.generate d 8) in
        Bigint.equal (Bigint.mul a (Bigint.add b c))
          (Bigint.add (Bigint.mul a b) (Bigint.mul a c)));
    q "bytes roundtrip" arb_positive (fun a ->
        Bigint.equal a (Bigint.of_bytes_be (Bigint.to_bytes_be a)));
    q "shift = mul by power" QCheck.(pair arb_positive (int_range 0 64)) (fun (a, k) ->
        Bigint.equal (Bigint.shift_left a k)
          (Bigint.mul a (Bigint.shift_left Bigint.one k)));
    q "mont pow = generic pow" QCheck.(triple arb_positive arb_positive arb_positive)
      (fun (b, e, m) ->
        let m = if Bigint.is_even m then Bigint.succ m else m in
        let m = if Bigint.equal m Bigint.one then bi 3 else m in
        let e = Bigint.erem e (bi 1000) in
        let ctx = Bigint.Mont.create m in
        Bigint.equal (Bigint.Mont.pow ctx b e) (Bigint.modpow b e m));
    q "mul_int consistent" QCheck.(pair arb_bigint (int_range (-1000000) 1000000)) (fun (a, k) ->
        Bigint.equal (Bigint.mul_int a k) (Bigint.mul a (bi k)));
    q "gcd divides" QCheck.(pair arb_positive arb_positive) (fun (a, b) ->
        let g = Bigint.gcd a b in
        Bigint.is_zero (Bigint.rem a g) && Bigint.is_zero (Bigint.rem b g));
    q "invmod correct" QCheck.(pair arb_positive arb_positive) (fun (a, m) ->
        let m = Bigint.add m Bigint.two in
        match Bigint.invmod a m with
        | None -> not (Bigint.equal (Bigint.gcd a m) Bigint.one)
        | Some inv -> Bigint.equal (Bigint.erem (Bigint.mul a inv) m) Bigint.one);
  ]

let suite =
  [
    Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
    Alcotest.test_case "min_int edge" `Quick test_min_int;
    Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "add/sub basics" `Quick test_add_sub_basics;
    Alcotest.test_case "carry chain" `Quick test_carry_chain;
    Alcotest.test_case "mul known" `Quick test_mul_known;
    Alcotest.test_case "divmod signs" `Quick test_divmod_signs;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero;
    Alcotest.test_case "erem nonneg" `Quick test_erem_nonneg;
    Alcotest.test_case "divmod_int" `Quick test_divmod_int;
    Alcotest.test_case "bit_length" `Quick test_bit_length;
    Alcotest.test_case "test_bit" `Quick test_test_bit;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "modpow known" `Quick test_modpow_known;
    Alcotest.test_case "modpow fermat" `Quick test_modpow_fermat;
    Alcotest.test_case "gcd" `Quick test_gcd;
    Alcotest.test_case "egcd identity" `Quick test_egcd_identity;
    Alcotest.test_case "invmod" `Quick test_invmod;
    Alcotest.test_case "mont = generic" `Quick test_mont_matches_generic;
    Alcotest.test_case "mont rejects even" `Quick test_mont_rejects_even;
    Alcotest.test_case "mont rejects negative exponent" `Quick test_mont_rejects_negative_exponent;
    Alcotest.test_case "comb width" `Quick test_comb_width;
    Alcotest.test_case "powm allocation" `Quick test_powm_allocation;
    Alcotest.test_case "jacobi known" `Quick test_jacobi_known;
    Alcotest.test_case "compare total order" `Quick test_compare_total_order;
    Alcotest.test_case "decimal known" `Quick test_decimal_known;
    Alcotest.test_case "decimal errors" `Quick test_decimal_errors;
    Alcotest.test_case "isqrt known" `Quick test_isqrt_known;
    Alcotest.test_case "karatsuba identity" `Quick test_karatsuba_consistency;
  ]
  @ qsuite
