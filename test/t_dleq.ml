(* Schnorr group + DLEQ VRF backend: group structure, VRF properties,
   Schnorr signatures, and keyring integration. *)

open Bignum

(* Small subgroup for test speed; the construction is size-agnostic. *)
let qbits = 96
let grp = lazy (Vrf.Group.generate ~qbits ~seed:"dleq-test-group" ())

let drbg_random seed =
  let d = Crypto.Drbg.create seed in
  fun n -> Crypto.Drbg.generate d n

let beq = Alcotest.testable (Fmt.of_to_string Bigint.to_hex) Bigint.equal

let test_group_structure () =
  let g = Lazy.force grp in
  let p = Vrf.Group.p g and q = Vrf.Group.q g in
  (* p = 2q + 1 *)
  Alcotest.check beq "p = 2q+1" p (Bigint.succ (Bigint.shift_left q 1));
  Alcotest.(check int) "q has requested bits" qbits (Bigint.bit_length q);
  (* generator has order q: g^q = 1 and g <> 1 *)
  Alcotest.check beq "g^q = 1" Bigint.one (Vrf.Group.pow g (Vrf.Group.g g) q);
  Alcotest.(check bool) "g <> 1" false (Bigint.equal (Vrf.Group.g g) Bigint.one);
  Alcotest.(check bool) "g is an element" true (Vrf.Group.is_element g (Vrf.Group.g g))

let test_group_deterministic () =
  let a = Vrf.Group.generate ~qbits:64 ~seed:"same" () in
  let b = Vrf.Group.generate ~qbits:64 ~seed:"same" () in
  Alcotest.check beq "same p" (Vrf.Group.p a) (Vrf.Group.p b);
  Alcotest.check beq "same g" (Vrf.Group.g a) (Vrf.Group.g b)

let test_hash_to_group () =
  let g = Lazy.force grp in
  let e1 = Vrf.Group.hash_to_group g "hello" in
  let e2 = Vrf.Group.hash_to_group g "hello" in
  let e3 = Vrf.Group.hash_to_group g "world" in
  Alcotest.check beq "deterministic" e1 e2;
  Alcotest.(check bool) "input-sensitive" false (Bigint.equal e1 e3);
  Alcotest.(check bool) "lands in subgroup" true (Vrf.Group.is_element g e1);
  Alcotest.(check bool) "other input in subgroup too" true (Vrf.Group.is_element g e3)

let test_hash_to_scalar_range () =
  let g = Lazy.force grp in
  for i = 0 to 20 do
    let s = Vrf.Group.hash_to_scalar g (string_of_int i) in
    Alcotest.(check bool) "in [0, q)" true
      (Bigint.sign s >= 0 && Bigint.compare s (Vrf.Group.q g) < 0)
  done

let test_is_element_rejects () =
  let g = Lazy.force grp in
  Alcotest.(check bool) "0 rejected" false (Vrf.Group.is_element g Bigint.zero);
  Alcotest.(check bool) "1 rejected" false (Vrf.Group.is_element g Bigint.one);
  Alcotest.(check bool) "p rejected" false (Vrf.Group.is_element g (Vrf.Group.p g));
  (* A quadratic non-residue is outside the order-q subgroup. *)
  let rec find_nonresidue c =
    let x = Bigint.erem (Bigint.of_int c) (Vrf.Group.p g) in
    if (not (Bigint.is_zero x)) && not (Vrf.Group.is_element g x) then x
    else find_nonresidue (c + 1)
  in
  Alcotest.(check bool) "non-residue rejected" false
    (Vrf.Group.is_element g (find_nonresidue 2))

(* ---------------- DLEQ VRF ---------------- *)

let keypair = lazy (Vrf.Dleq_vrf.keygen (Lazy.force grp) ~random:(drbg_random "dleq-key"))

let test_prove_verify () =
  let g = Lazy.force grp in
  let sk = Lazy.force keypair in
  let pk = Vrf.Dleq_vrf.public_of_secret sk in
  let beta, pi = Vrf.Dleq_vrf.prove g sk "alpha" in
  Alcotest.(check int) "beta 32 bytes" 32 (String.length beta);
  Alcotest.(check bool) "verifies" true (Vrf.Dleq_vrf.verify g pk "alpha" (beta, pi));
  Alcotest.(check bool) "wrong alpha" false (Vrf.Dleq_vrf.verify g pk "alpha2" (beta, pi))

let test_deterministic_and_unique () =
  let g = Lazy.force grp in
  let sk = Lazy.force keypair in
  let b1, p1 = Vrf.Dleq_vrf.prove g sk "x" in
  let b2, p2 = Vrf.Dleq_vrf.prove g sk "x" in
  Alcotest.(check string) "beta deterministic" b1 b2;
  Alcotest.check beq "gamma deterministic" p1.Vrf.Dleq_vrf.gamma p2.Vrf.Dleq_vrf.gamma

let test_forged_gamma_rejected () =
  (* Uniqueness: a different gamma (hence different beta) cannot verify,
     even with a recomputed-looking proof. *)
  let g = Lazy.force grp in
  let sk = Lazy.force keypair in
  let pk = Vrf.Dleq_vrf.public_of_secret sk in
  let beta, pi = Vrf.Dleq_vrf.prove g sk "target" in
  let forged_gamma = Vrf.Group.pow g pi.Vrf.Dleq_vrf.gamma Bigint.two in
  let forged = { pi with Vrf.Dleq_vrf.gamma = forged_gamma } in
  Alcotest.(check bool) "forged gamma rejected" false
    (Vrf.Dleq_vrf.verify g pk "target" (beta, forged))

let test_wrong_key_rejected () =
  let g = Lazy.force grp in
  let sk = Lazy.force keypair in
  let sk2 = Vrf.Dleq_vrf.keygen g ~random:(drbg_random "dleq-key-2") in
  let pk2 = Vrf.Dleq_vrf.public_of_secret sk2 in
  let out = Vrf.Dleq_vrf.prove g sk "m" in
  Alcotest.(check bool) "other key rejects" false (Vrf.Dleq_vrf.verify g pk2 "m" out)

let test_proof_bytes_roundtrip () =
  let g = Lazy.force grp in
  let sk = Lazy.force keypair in
  let _, pi = Vrf.Dleq_vrf.prove g sk "serialize" in
  match Vrf.Dleq_vrf.proof_of_bytes g (Vrf.Dleq_vrf.proof_to_bytes g pi) with
  | None -> Alcotest.fail "roundtrip failed"
  | Some pi' ->
      Alcotest.check beq "gamma" pi.Vrf.Dleq_vrf.gamma pi'.Vrf.Dleq_vrf.gamma;
      Alcotest.check beq "c" pi.Vrf.Dleq_vrf.c pi'.Vrf.Dleq_vrf.c;
      Alcotest.check beq "s" pi.Vrf.Dleq_vrf.s pi'.Vrf.Dleq_vrf.s

let test_proof_bytes_bad_length () =
  let g = Lazy.force grp in
  Alcotest.(check bool) "short rejected" true (Vrf.Dleq_vrf.proof_of_bytes g "short" = None)

let test_schnorr_signature () =
  let g = Lazy.force grp in
  let sk = Lazy.force keypair in
  let pk = Vrf.Dleq_vrf.public_of_secret sk in
  let s = Vrf.Dleq_vrf.sign g sk "message" in
  Alcotest.(check bool) "verifies" true (Vrf.Dleq_vrf.verify_sig g pk "message" s);
  Alcotest.(check bool) "wrong msg" false (Vrf.Dleq_vrf.verify_sig g pk "other" s);
  Alcotest.(check bool) "garbage" false (Vrf.Dleq_vrf.verify_sig g pk "message" "garbage")

let test_beta_uniform_lsb () =
  let g = Lazy.force grp in
  let sk = Lazy.force keypair in
  let ones = ref 0 in
  for i = 0 to 199 do
    let beta, _ = Vrf.Dleq_vrf.prove g sk (string_of_int i) in
    if Vrf.beta_lsb beta = 1 then incr ones
  done;
  Alcotest.(check bool) (Printf.sprintf "lsb balanced (%d/200)" !ones) true
    (!ones > 70 && !ones < 130)

(* SHA-256 over the public key and a batch of fixed-seed outputs, frozen
   from the ladder-only kernel (shift-and-subtract division, one windowed
   exponentiation per power).  Proof and signature bytes are a function
   of the key and the input alone, so the fixed-base and Straus paths
   must reproduce them bit for bit. *)
let digest_hex parts = Crypto.Hex.encode (Crypto.Sha256.digest (String.concat "" parts))

let test_golden_digests () =
  let g = Lazy.force grp in
  let sk = Lazy.force keypair in
  let pk = Vrf.Group.element_bytes g (Vrf.Dleq_vrf.(public_element (public_of_secret sk))) in
  let proofs =
    List.init 32 (fun i ->
        let beta, pi = Vrf.Dleq_vrf.prove g sk (Printf.sprintf "golden-%d" i) in
        beta ^ Vrf.Dleq_vrf.proof_to_bytes g pi)
  in
  let sigs = List.init 32 (fun i -> Vrf.Dleq_vrf.sign g sk (Printf.sprintf "golden-%d" i)) in
  Alcotest.(check string) "32 DLEQ proofs"
    "b2fc45ed3aed036ba1900c3c444ac0beccca1378831d54677a17331c8bcf3d2d"
    (digest_hex (pk :: proofs));
  Alcotest.(check string) "32 Schnorr signatures"
    "7ce39b54cf0481a45c81efd8a479779bb173150c0e5010f08606091f606a4f26" (digest_hex sigs)

(* ---------------- keyring integration ---------------- *)

let keyring = lazy (Vrf.Keyring.create ~backend:(Vrf.Dleq { qbits }) ~n:6 ~seed:"dleq-kr" ())

let test_keyring_prove_verify () =
  let kr = Lazy.force keyring in
  let out = Vrf.Keyring.prove kr 0 "committee" in
  Alcotest.(check bool) "verifies" true (Vrf.Keyring.verify kr ~signer:0 "committee" out);
  Alcotest.(check bool) "wrong signer" false (Vrf.Keyring.verify kr ~signer:1 "committee" out)

let test_keyring_sign () =
  let kr = Lazy.force keyring in
  let s = Vrf.Keyring.sign kr 2 "echo-payload" in
  Alcotest.(check bool) "sig verifies" true (Vrf.Keyring.verify_sig kr ~signer:2 "echo-payload" s);
  Alcotest.(check bool) "wrong signer" false (Vrf.Keyring.verify_sig kr ~signer:3 "echo-payload" s)

let test_coin_end_to_end_dleq () =
  (* A full Algorithm 1 instance under the DLEQ backend. *)
  let kr = Lazy.force keyring in
  let o = Core.Runner.run_shared_coin ~keyring:kr ~n:6 ~f:0 ~round:0 ~seed:3 () in
  Alcotest.(check int) "all return" 6 (List.length o.Core.Runner.outputs)

let test_ba_end_to_end_dleq () =
  (* A full Algorithm 4 instance under the DLEQ backend (small n). *)
  let kr = Lazy.force keyring in
  let p = Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:6 ~n:6 () in
  let o = Core.Runner.run_ba ~keyring:kr ~params:p ~inputs:[| 1; 1; 1; 1; 1; 1 |] ~seed:4 () in
  Alcotest.(check bool) "all decided" true o.Core.Runner.all_decided;
  List.iter (fun (_, d) -> Alcotest.(check int) "validity" 1 d) o.Core.Runner.decisions

let qcheck_dleq_roundtrip =
  QCheck.Test.make ~name:"qcheck: dleq prove/verify arbitrary alpha" ~count:40
    QCheck.small_string (fun alpha ->
      let g = Lazy.force grp in
      let sk = Lazy.force keypair in
      let pk = Vrf.Dleq_vrf.public_of_secret sk in
      Vrf.Dleq_vrf.verify g pk alpha (Vrf.Dleq_vrf.prove g sk alpha))

let suite =
  [
    Alcotest.test_case "group structure" `Quick test_group_structure;
    Alcotest.test_case "group deterministic" `Quick test_group_deterministic;
    Alcotest.test_case "hash to group" `Quick test_hash_to_group;
    Alcotest.test_case "hash to scalar" `Quick test_hash_to_scalar_range;
    Alcotest.test_case "is_element rejects" `Quick test_is_element_rejects;
    Alcotest.test_case "prove/verify" `Quick test_prove_verify;
    Alcotest.test_case "deterministic + unique" `Quick test_deterministic_and_unique;
    Alcotest.test_case "forged gamma rejected" `Quick test_forged_gamma_rejected;
    Alcotest.test_case "wrong key rejected" `Quick test_wrong_key_rejected;
    Alcotest.test_case "proof bytes roundtrip" `Quick test_proof_bytes_roundtrip;
    Alcotest.test_case "proof bytes bad length" `Quick test_proof_bytes_bad_length;
    Alcotest.test_case "schnorr signature" `Quick test_schnorr_signature;
    Alcotest.test_case "golden digests" `Quick test_golden_digests;
    Alcotest.test_case "beta lsb balanced" `Slow test_beta_uniform_lsb;
    Alcotest.test_case "keyring prove/verify" `Quick test_keyring_prove_verify;
    Alcotest.test_case "keyring sign" `Quick test_keyring_sign;
    Alcotest.test_case "coin end-to-end (dleq)" `Slow test_coin_end_to_end_dleq;
    Alcotest.test_case "ba end-to-end (dleq)" `Slow test_ba_end_to_end_dleq;
    QCheck_alcotest.to_alcotest qcheck_dleq_roundtrip;
  ]
