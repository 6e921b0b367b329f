(* VRF properties (both backends): determinism, verifiability, uniqueness,
   unforgeability, domain separation, and the beta helpers. *)

let keyrings =
  lazy
    [
      ("rsa", Vrf.Keyring.create ~backend:(Vrf.Rsa_fdh { bits = 256 }) ~n:4 ~seed:"vrf-test" ());
      ("mock", Vrf.Keyring.create ~backend:Vrf.Mock ~n:4 ~seed:"vrf-test" ());
    ]

let for_each_backend f =
  List.iter (fun (name, kr) -> f name kr) (Lazy.force keyrings)

let test_prove_verify () =
  for_each_backend (fun name kr ->
      let out = Vrf.Keyring.prove kr 0 "alpha" in
      Alcotest.(check bool) (name ^ ": verifies") true (Vrf.Keyring.verify kr ~signer:0 "alpha" out);
      Alcotest.(check int) (name ^ ": beta is 32 bytes") 32 (String.length out.Vrf.beta))

let test_determinism () =
  for_each_backend (fun name kr ->
      let a = Vrf.Keyring.prove kr 1 "x" and b = Vrf.Keyring.prove kr 1 "x" in
      Alcotest.(check string) (name ^ ": beta deterministic") a.Vrf.beta b.Vrf.beta;
      Alcotest.(check string) (name ^ ": proof deterministic") a.Vrf.proof b.Vrf.proof)

let test_distinct_inputs () =
  for_each_backend (fun name kr ->
      let a = Vrf.Keyring.prove kr 1 "x" and b = Vrf.Keyring.prove kr 1 "y" in
      Alcotest.(check bool) (name ^ ": different inputs differ") true (a.Vrf.beta <> b.Vrf.beta))

let test_distinct_signers () =
  for_each_backend (fun name kr ->
      let a = Vrf.Keyring.prove kr 0 "x" and b = Vrf.Keyring.prove kr 1 "x" in
      Alcotest.(check bool) (name ^ ": different signers differ") true (a.Vrf.beta <> b.Vrf.beta))

let test_wrong_signer_rejected () =
  for_each_backend (fun name kr ->
      let out = Vrf.Keyring.prove kr 0 "x" in
      Alcotest.(check bool) (name ^ ": wrong signer") false
        (Vrf.Keyring.verify kr ~signer:1 "x" out))

let test_wrong_alpha_rejected () =
  for_each_backend (fun name kr ->
      let out = Vrf.Keyring.prove kr 0 "x" in
      Alcotest.(check bool) (name ^ ": wrong alpha") false
        (Vrf.Keyring.verify kr ~signer:0 "y" out))

let test_forged_beta_rejected () =
  (* Uniqueness: can't claim a different beta with the same proof. *)
  for_each_backend (fun name kr ->
      let out = Vrf.Keyring.prove kr 0 "x" in
      let forged = { out with Vrf.beta = Crypto.Sha256.digest "forged" } in
      Alcotest.(check bool) (name ^ ": forged beta") false
        (Vrf.Keyring.verify kr ~signer:0 "x" forged))

let test_tampered_proof_rejected () =
  for_each_backend (fun name kr ->
      let out = Vrf.Keyring.prove kr 0 "x" in
      let p = Bytes.of_string out.Vrf.proof in
      Bytes.set p 0 (Char.chr (Char.code (Bytes.get p 0) lxor 0x80));
      let tampered = { out with Vrf.proof = Bytes.to_string p } in
      Alcotest.(check bool) (name ^ ": tampered proof") false
        (Vrf.Keyring.verify kr ~signer:0 "x" tampered))

let test_sig_domain_separation () =
  (* A signature on m must not verify as a VRF proof for m and vice versa. *)
  for_each_backend (fun name kr ->
      let s = Vrf.Keyring.sign kr 0 "m" in
      let as_vrf = { Vrf.beta = Crypto.Sha256.digest s; proof = s } in
      Alcotest.(check bool) (name ^ ": signature is not a VRF proof") false
        (Vrf.Keyring.verify kr ~signer:0 "m" as_vrf))

let test_sign_verify_sig () =
  for_each_backend (fun name kr ->
      let s = Vrf.Keyring.sign kr 2 "payload" in
      Alcotest.(check bool) (name ^ ": sig verifies") true
        (Vrf.Keyring.verify_sig kr ~signer:2 "payload" s);
      Alcotest.(check bool) (name ^ ": sig wrong signer") false
        (Vrf.Keyring.verify_sig kr ~signer:3 "payload" s);
      Alcotest.(check bool) (name ^ ": sig wrong msg") false
        (Vrf.Keyring.verify_sig kr ~signer:2 "payload2" s))

let test_fingerprints () =
  for_each_backend (fun name kr ->
      Alcotest.(check bool) (name ^ ": fingerprints distinct") true
        (Vrf.Keyring.public_fingerprint kr 0 <> Vrf.Keyring.public_fingerprint kr 1))

let test_seed_separation () =
  let a = Vrf.Keyring.create ~backend:Vrf.Mock ~n:2 ~seed:"s1" () in
  let b = Vrf.Keyring.create ~backend:Vrf.Mock ~n:2 ~seed:"s2" () in
  Alcotest.(check bool) "different seeds, different outputs" true
    ((Vrf.Keyring.prove a 0 "x").Vrf.beta <> (Vrf.Keyring.prove b 0 "x").Vrf.beta)

let test_pid_bounds () =
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n:2 ~seed:"s" () in
  Alcotest.check_raises "out of range" (Invalid_argument "Keyring: pid out of range") (fun () ->
      ignore (Vrf.Keyring.prove kr 2 "x"))

let test_compare_beta () =
  Alcotest.(check bool) "lexicographic" true (Vrf.compare_beta "\x00\x01" "\x00\x02" < 0);
  Alcotest.(check int) "equal" 0 (Vrf.compare_beta "ab" "ab")

let test_beta_bits () =
  let beta = "\xff\x00\x00\x00\x00\x00\x00\x00" ^ String.make 24 '\x00' in
  Alcotest.(check int64) "top 8 bits" 0xffL (Vrf.beta_bits beta 8);
  Alcotest.(check int64) "top 4 bits" 0xfL (Vrf.beta_bits beta 4);
  let beta0 = String.make 32 '\x00' in
  Alcotest.(check int64) "zero" 0L (Vrf.beta_bits beta0 52)

let test_beta_lsb () =
  Alcotest.(check int) "odd" 1 (Vrf.beta_lsb "\x00\x01");
  Alcotest.(check int) "even" 0 (Vrf.beta_lsb "\x01\x02")

let test_beta_uniformity () =
  (* LSBs of VRF outputs over distinct inputs should be balanced — this is
     the coin's fairness source. *)
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n:1 ~seed:"uniform" () in
  let ones = ref 0 in
  for i = 0 to 999 do
    if Vrf.beta_lsb (Vrf.Keyring.prove kr 0 (string_of_int i)).Vrf.beta = 1 then incr ones
  done;
  Alcotest.(check bool) "lsb balanced" true (!ones > 430 && !ones < 570)

(* SHA-256 over the fingerprints, proofs and signatures of a Mock
   keyring, frozen when each key was an HMAC key string re-padded on
   every use.  The fingerprint hashes the key bytes, so this pins the key
   derivation as well as the prepared-state tag path. *)
let test_mock_golden () =
  let n = 8 in
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"mock-golden" () in
  let parts =
    List.concat
      (List.init n (fun i ->
           let out = Vrf.Keyring.prove kr i (Printf.sprintf "alpha-%d" i) in
           [
             Vrf.Keyring.public_fingerprint kr i;
             out.Vrf.beta;
             out.Vrf.proof;
             Vrf.Keyring.sign kr i (Printf.sprintf "msg-%d" i);
           ]))
  in
  Alcotest.(check string) "fingerprints, proofs and signatures"
    "d93ae05cf8cbb46d82e0b67c13b074d23039a7a4c36c108fd2b61fe8bfcf84bc"
    (Crypto.Hex.encode (Crypto.Sha256.digest_list parts))

let qcheck_verify_all_alphas =
  QCheck.Test.make ~name:"qcheck: prove/verify for arbitrary alpha (mock)" ~count:100
    QCheck.small_string (fun alpha ->
      let kr = List.assoc "mock" (Lazy.force keyrings) in
      Vrf.Keyring.verify kr ~signer:3 alpha (Vrf.Keyring.prove kr 3 alpha))

let qcheck_verify_all_alphas_rsa =
  QCheck.Test.make ~name:"qcheck: prove/verify for arbitrary alpha (rsa)" ~count:25
    QCheck.small_string (fun alpha ->
      let kr = List.assoc "rsa" (Lazy.force keyrings) in
      Vrf.Keyring.verify kr ~signer:3 alpha (Vrf.Keyring.prove kr 3 alpha))

let suite =
  [
    Alcotest.test_case "prove/verify" `Quick test_prove_verify;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "distinct inputs" `Quick test_distinct_inputs;
    Alcotest.test_case "distinct signers" `Quick test_distinct_signers;
    Alcotest.test_case "wrong signer rejected" `Quick test_wrong_signer_rejected;
    Alcotest.test_case "wrong alpha rejected" `Quick test_wrong_alpha_rejected;
    Alcotest.test_case "forged beta rejected" `Quick test_forged_beta_rejected;
    Alcotest.test_case "tampered proof rejected" `Quick test_tampered_proof_rejected;
    Alcotest.test_case "sig/vrf domain separation" `Quick test_sig_domain_separation;
    Alcotest.test_case "sign/verify_sig" `Quick test_sign_verify_sig;
    Alcotest.test_case "fingerprints" `Quick test_fingerprints;
    Alcotest.test_case "seed separation" `Quick test_seed_separation;
    Alcotest.test_case "pid bounds" `Quick test_pid_bounds;
    Alcotest.test_case "compare_beta" `Quick test_compare_beta;
    Alcotest.test_case "beta_bits" `Quick test_beta_bits;
    Alcotest.test_case "beta_lsb" `Quick test_beta_lsb;
    Alcotest.test_case "beta lsb uniformity" `Quick test_beta_uniformity;
    Alcotest.test_case "mock golden digest" `Quick test_mock_golden;
    QCheck_alcotest.to_alcotest qcheck_verify_all_alphas;
    QCheck_alcotest.to_alcotest qcheck_verify_all_alphas_rsa;
  ]
