(* Prime testing/generation and RSA-FDH signatures. *)

open Bignum

let bi = Bigint.of_int

let drbg_random seed =
  let d = Crypto.Drbg.create seed in
  fun n -> Crypto.Drbg.generate d n

let test_small_primes_table () =
  Alcotest.(check int) "first prime" 2 Prime.small_primes.(0);
  Alcotest.(check bool) "1999 present" true (Array.exists (fun p -> p = 1999) Prime.small_primes);
  Alcotest.(check bool) "no composite 1998" false (Array.exists (fun p -> p = 1998) Prime.small_primes);
  (* Pairwise coprimality spot check is meaningless; instead verify count:
     there are 303 primes below 2000. *)
  Alcotest.(check int) "count below 2000" 303 (Array.length Prime.small_primes)

let test_known_primes_int () =
  let random = drbg_random "mr2" in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "%d prime" p) true
        (Prime.is_probable_prime ~random (bi p)))
    [ 2; 3; 5; 7; 97; 1009; 104729; 2147483647 ];
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "%d composite" c) false
        (Prime.is_probable_prime ~random (bi c)))
    [ 0; 1; 4; 100; 1001; 104730; 2147483645 ]

let test_carmichael () =
  (* Carmichael numbers fool Fermat but not Miller-Rabin. *)
  let random = drbg_random "carmichael" in
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "%d rejected" c) false
        (Prime.is_probable_prime ~random (bi c)))
    [ 561; 1105; 1729; 2465; 2821; 6601; 8911; 41041; 825265 ]

let test_mersenne () =
  let random = drbg_random "mersenne" in
  (* 2^61 - 1 is prime; 2^67 - 1 = 193707721 * 761838257287 is not. *)
  Alcotest.(check bool) "M61 prime" true
    (Prime.is_probable_prime ~random (Bigint.pred (Bigint.shift_left Bigint.one 61)));
  Alcotest.(check bool) "M67 composite" false
    (Prime.is_probable_prime ~random (Bigint.pred (Bigint.shift_left Bigint.one 67)))

let test_gen_prime_bits () =
  let random = drbg_random "gen" in
  List.iter
    (fun bits ->
      let p = Prime.gen_prime ~bits ~random in
      Alcotest.(check int) (Printf.sprintf "%d bits" bits) bits (Bigint.bit_length p);
      Alcotest.(check bool) "top two bits set" true (Bigint.test_bit p (bits - 2));
      Alcotest.(check bool) "odd" true (Bigint.is_odd p);
      Alcotest.(check bool) "probably prime" true (Prime.is_probable_prime ~random p))
    [ 16; 32; 64; 128 ]

let test_gen_prime_with () =
  let random = drbg_random "genwith" in
  let e = bi 65537 in
  let p =
    Prime.gen_prime_with ~bits:64 ~random (fun p ->
        Bigint.equal (Bigint.gcd (Bigint.pred p) e) Bigint.one)
  in
  Alcotest.(check bool) "predicate holds" true
    (Bigint.equal (Bigint.gcd (Bigint.pred p) e) Bigint.one)

(* ------------------------- RSA ------------------------- *)

let keypair = lazy (Rsa.keygen ~bits:256 ~random:(drbg_random "rsa-key"))

let test_keygen_shape () =
  let sk = Lazy.force keypair in
  let pk = Rsa.public_of_secret sk in
  Alcotest.(check int) "modulus bits" 256 (Bigint.bit_length pk.Rsa.n);
  Alcotest.(check bool) "e = 65537" true (Bigint.equal pk.Rsa.e (bi 65537));
  Alcotest.(check int) "sig length" 32 (Rsa.signature_length pk)

let test_sign_verify () =
  let sk = Lazy.force keypair in
  let pk = Rsa.public_of_secret sk in
  let s = Rsa.sign sk "hello" in
  Alcotest.(check bool) "verifies" true (Rsa.verify pk "hello" s);
  Alcotest.(check bool) "wrong msg" false (Rsa.verify pk "hellp" s)

let test_sign_deterministic () =
  let sk = Lazy.force keypair in
  Alcotest.(check string) "FDH signing is deterministic (uniqueness)" (Rsa.sign sk "m")
    (Rsa.sign sk "m")

let test_tampered_signature () =
  let sk = Lazy.force keypair in
  let pk = Rsa.public_of_secret sk in
  let s = Bytes.of_string (Rsa.sign sk "msg") in
  Bytes.set s 5 (Char.chr (Char.code (Bytes.get s 5) lxor 1));
  Alcotest.(check bool) "tampered fails" false (Rsa.verify pk "msg" (Bytes.to_string s))

let test_wrong_key () =
  let sk = Lazy.force keypair in
  let sk2 = Rsa.keygen ~bits:256 ~random:(drbg_random "rsa-key-2") in
  let pk2 = Rsa.public_of_secret sk2 in
  Alcotest.(check bool) "other key rejects" false (Rsa.verify pk2 "msg" (Rsa.sign sk "msg"))

let test_malformed_signature () =
  let sk = Lazy.force keypair in
  let pk = Rsa.public_of_secret sk in
  Alcotest.(check bool) "short" false (Rsa.verify pk "msg" "short");
  Alcotest.(check bool) "empty" false (Rsa.verify pk "msg" "");
  Alcotest.(check bool) "all 0xff (>= n)" false (Rsa.verify pk "msg" (String.make 32 '\xff'))

let test_verifier_consistent () =
  let sk = Lazy.force keypair in
  let pk = Rsa.public_of_secret sk in
  let v = Rsa.verifier pk in
  let s = Rsa.sign sk "cached" in
  Alcotest.(check bool) "verifier accepts" true (Rsa.verify' v "cached" s);
  Alcotest.(check bool) "verifier rejects" false (Rsa.verify' v "tampered" s)

let test_mgf1_properties () =
  Alcotest.(check int) "length" 100 (String.length (Rsa.mgf1 "seed" 100));
  Alcotest.(check string) "deterministic" (Rsa.mgf1 "seed" 64) (Rsa.mgf1 "seed" 64);
  Alcotest.(check bool) "seed-sensitive" true (Rsa.mgf1 "seed1" 64 <> Rsa.mgf1 "seed2" 64);
  (* Prefix property of counter-mode MGF1. *)
  Alcotest.(check string) "prefix" (Rsa.mgf1 "s" 32) (String.sub (Rsa.mgf1 "s" 64) 0 32)

let test_fdh_below_modulus () =
  let sk = Lazy.force keypair in
  let pk = Rsa.public_of_secret sk in
  for i = 0 to 50 do
    let em = Rsa.fdh pk (string_of_int i) in
    Alcotest.(check bool) "fdh < n" true (Bigint.compare em pk.Rsa.n < 0);
    Alcotest.(check bool) "fdh fits bits-1" true (Bigint.bit_length em <= 255)
  done

let test_keygen_rejects_bad_bits () =
  Alcotest.check_raises "odd bits" (Invalid_argument "Rsa.keygen: bits must be even and >= 32")
    (fun () -> ignore (Rsa.keygen ~bits:33 ~random:(drbg_random "x")))

let test_fingerprint_distinct () =
  let sk = Lazy.force keypair in
  let sk2 = Rsa.keygen ~bits:256 ~random:(drbg_random "rsa-key-3") in
  Alcotest.(check bool) "fingerprints differ" true
    (Rsa.fingerprint (Rsa.public_of_secret sk) <> Rsa.fingerprint (Rsa.public_of_secret sk2))

let test_golden_digest () =
  (* SHA-256 over a 512-bit key's fingerprint and 32 signatures, frozen
     from the shift-and-subtract division kernel: keygen (trial division,
     Miller-Rabin, CRT precomputation) and CRT signing both divide, and
     their output must not move. *)
  let sk = Rsa.keygen ~bits:512 ~random:(drbg_random "rsa-golden") in
  let parts =
    Rsa.fingerprint (Rsa.public_of_secret sk)
    :: List.init 32 (fun i -> Rsa.sign sk (Printf.sprintf "golden-%d" i))
  in
  Alcotest.(check string) "32 RSA signatures"
    "40f062a32fbbeaeee495fca3474cd04738d5839c2b364e675fc36fe461a5387c"
    (Crypto.Hex.encode (Crypto.Sha256.digest (String.concat "" parts)))

let qcheck_sign_verify =
  QCheck.Test.make ~name:"qcheck: rsa sign/verify roundtrip" ~count:40 QCheck.small_string
    (fun msg ->
      let sk = Lazy.force keypair in
      let pk = Rsa.public_of_secret sk in
      Rsa.verify pk msg (Rsa.sign sk msg))

let qcheck_cross_message =
  QCheck.Test.make ~name:"qcheck: signature never validates other message" ~count:40
    QCheck.(pair small_string small_string)
    (fun (m1, m2) ->
      let sk = Lazy.force keypair in
      let pk = Rsa.public_of_secret sk in
      m1 = m2 || not (Rsa.verify pk m2 (Rsa.sign sk m1)))

let suite =
  [
    Alcotest.test_case "small primes table" `Quick test_small_primes_table;
    Alcotest.test_case "known primes" `Quick test_known_primes_int;
    Alcotest.test_case "carmichael rejected" `Quick test_carmichael;
    Alcotest.test_case "mersenne" `Quick test_mersenne;
    Alcotest.test_case "gen_prime bits" `Slow test_gen_prime_bits;
    Alcotest.test_case "gen_prime_with" `Quick test_gen_prime_with;
    Alcotest.test_case "rsa keygen shape" `Quick test_keygen_shape;
    Alcotest.test_case "rsa sign/verify" `Quick test_sign_verify;
    Alcotest.test_case "rsa deterministic" `Quick test_sign_deterministic;
    Alcotest.test_case "rsa tampered" `Quick test_tampered_signature;
    Alcotest.test_case "rsa wrong key" `Quick test_wrong_key;
    Alcotest.test_case "rsa malformed" `Quick test_malformed_signature;
    Alcotest.test_case "rsa verifier" `Quick test_verifier_consistent;
    Alcotest.test_case "mgf1" `Quick test_mgf1_properties;
    Alcotest.test_case "fdh below modulus" `Quick test_fdh_below_modulus;
    Alcotest.test_case "keygen arg check" `Quick test_keygen_rejects_bad_bits;
    Alcotest.test_case "fingerprint distinct" `Quick test_fingerprint_distinct;
    Alcotest.test_case "golden digest" `Quick test_golden_digest;
    QCheck_alcotest.to_alcotest qcheck_sign_verify;
    QCheck_alcotest.to_alcotest qcheck_cross_message;
  ]
