(* Hex codec, HMAC-SHA-256 (RFC 4231 vectors), HMAC-DRBG behaviour. *)

open Crypto

let test_hex_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (Hex.decode (Hex.encode s)))
    [ ""; "\x00"; "abc"; "\xff\x00\x7f"; String.init 256 Char.chr ]

let test_hex_known () =
  Alcotest.(check string) "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode upper" "\x00\xff\x10" (Hex.decode "00FF10")

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character") (fun () ->
      ignore (Hex.decode "zz"))

(* RFC 4231 test cases 1, 2, 3 and 7 for HMAC-SHA-256. *)
let rfc4231 =
  [
    ( String.make 20 '\x0b',
      "Hi There",
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
    ( "Jefe",
      "what do ya want for nothing?",
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
    ( String.make 20 '\xaa',
      String.make 50 '\xdd',
      "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
    ( String.make 131 '\xaa',
      "This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
  ]

let test_hmac_vectors () =
  List.iter
    (fun (key, msg, expect) ->
      Alcotest.(check string) "rfc4231" expect (Hex.encode (Hmac.sha256 ~key msg)))
    rfc4231

let test_hmac_list () =
  Alcotest.(check string)
    "list = concat"
    (Hex.encode (Hmac.sha256 ~key:"k" "abc"))
    (Hex.encode (Hmac.sha256_list ~key:"k" [ "a"; "bc" ]))

let test_hmac_prepared_key () =
  (* The prepared states give the same tags as the one-shot path,
     including for a key longer than a block (hashed first) and for a
     message spread over parts; one key serves repeated tags. *)
  List.iter
    (fun (key, msg, expect) ->
      let k = Hmac.key key in
      Alcotest.(check string) "prepared key" expect (Hex.encode (Hmac.mac k msg));
      Alcotest.(check string) "prepared key, again" expect (Hex.encode (Hmac.mac k msg));
      let cut = String.length msg / 2 in
      Alcotest.(check string) "prepared key, parts" expect
        (Hex.encode
           (Hmac.mac_list k [ String.sub msg 0 cut; String.sub msg cut (String.length msg - cut) ])))
    rfc4231

let test_hmac_equal () =
  Alcotest.(check bool) "equal" true (Hmac.equal "abc" "abc");
  Alcotest.(check bool) "unequal content" false (Hmac.equal "abc" "abd");
  Alcotest.(check bool) "unequal length" false (Hmac.equal "abc" "abcd")

let test_drbg_deterministic () =
  let a = Drbg.create "entropy" and b = Drbg.create "entropy" in
  Alcotest.(check string) "same stream" (Drbg.generate a 100) (Drbg.generate b 100)

let test_drbg_personalization () =
  let a = Drbg.create ~personalization:"x" "entropy" in
  let b = Drbg.create ~personalization:"y" "entropy" in
  Alcotest.(check bool) "personalisation separates" true (Drbg.generate a 32 <> Drbg.generate b 32)

let test_drbg_entropy () =
  let a = Drbg.create "e1" and b = Drbg.create "e2" in
  Alcotest.(check bool) "different entropy differs" true (Drbg.generate a 32 <> Drbg.generate b 32)

let test_drbg_advances () =
  let a = Drbg.create "entropy" in
  Alcotest.(check bool) "successive calls differ" true (Drbg.generate a 32 <> Drbg.generate a 32)

let test_drbg_reseed () =
  let a = Drbg.create "entropy" and b = Drbg.create "entropy" in
  Drbg.reseed a "more";
  Alcotest.(check bool) "reseed changes stream" true (Drbg.generate a 32 <> Drbg.generate b 32)

let test_drbg_lengths () =
  let a = Drbg.create "entropy" in
  List.iter (fun n -> Alcotest.(check int) "len" n (String.length (Drbg.generate a n))) [ 1; 31; 32; 33; 100 ]

let test_drbg_chunking_matters_not_for_determinism () =
  (* Two generators asked for the same total in different chunkings produce
     different streams (state advances per call) — but each is individually
     reproducible.  Pin the exact behaviour with a regression value. *)
  let a = Drbg.create "pin" in
  let first = Hex.encode (Drbg.generate a 16) in
  let a2 = Drbg.create "pin" in
  Alcotest.(check string) "reproducible" first (Hex.encode (Drbg.generate a2 16))

let qcheck_drbg_uniform_bytes =
  QCheck.Test.make ~name:"qcheck: drbg bytes roughly balanced bits" ~count:20
    QCheck.small_string (fun seed ->
      let d = Drbg.create seed in
      let s = Drbg.generate d 1024 in
      let ones = ref 0 in
      String.iter
        (fun c ->
          let rec popcount v = if v = 0 then 0 else (v land 1) + popcount (v lsr 1) in
          ones := !ones + popcount (Char.code c))
        s;
      (* 8192 bits; expect about half ones. *)
      !ones > 3700 && !ones < 4500)

let suite =
  [
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "hex known" `Quick test_hex_known;
    Alcotest.test_case "hex errors" `Quick test_hex_errors;
    Alcotest.test_case "hmac rfc4231" `Quick test_hmac_vectors;
    Alcotest.test_case "hmac list" `Quick test_hmac_list;
    Alcotest.test_case "hmac prepared key" `Quick test_hmac_prepared_key;
    Alcotest.test_case "hmac equal" `Quick test_hmac_equal;
    Alcotest.test_case "drbg deterministic" `Quick test_drbg_deterministic;
    Alcotest.test_case "drbg personalization" `Quick test_drbg_personalization;
    Alcotest.test_case "drbg entropy" `Quick test_drbg_entropy;
    Alcotest.test_case "drbg advances" `Quick test_drbg_advances;
    Alcotest.test_case "drbg reseed" `Quick test_drbg_reseed;
    Alcotest.test_case "drbg lengths" `Quick test_drbg_lengths;
    Alcotest.test_case "drbg reproducible" `Quick test_drbg_chunking_matters_not_for_determinism;
    QCheck_alcotest.to_alcotest qcheck_drbg_uniform_bytes;
  ]
