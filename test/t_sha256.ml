(* SHA-256 against FIPS/NIST vectors plus incremental-API properties. *)

open Crypto

let check_hex = Alcotest.(check string)

(* NIST FIPS 180-4 example vectors plus a few from the NESSIE set. *)
let known_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ("message digest", "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d393cb650");
    ("a", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb");
  ]

let test_vectors () =
  List.iter (fun (input, expect) -> check_hex input expect (Sha256.hex input)) known_vectors

let test_million_a () =
  (* The classic 1,000,000 x 'a' vector, fed in uneven chunks. *)
  let ctx = Sha256.init () in
  let chunk = String.make 997 'a' in
  let fed = ref 0 in
  while !fed + 997 <= 1_000_000 do
    Sha256.update ctx chunk;
    fed := !fed + 997
  done;
  Sha256.update ctx (String.make (1_000_000 - !fed) 'a');
  check_hex "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hex.encode (Sha256.finalize ctx))

let test_block_boundaries () =
  (* Inputs straddling the 64-byte block and 56-byte padding boundaries. *)
  List.iter
    (fun len ->
      let s = String.make len 'x' in
      let one_shot = Sha256.digest s in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d bytewise = one-shot" len)
        (Hex.encode one_shot)
        (Hex.encode (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

let test_digest_list () =
  let parts = [ "ab"; ""; "c" ] in
  Alcotest.(check string)
    "digest_list = digest of concat"
    (Hex.encode (Sha256.digest "abc"))
    (Hex.encode (Sha256.digest_list parts))

let test_digest_size () =
  Alcotest.(check int) "32 bytes" 32 (String.length (Sha256.digest "anything"));
  Alcotest.(check int) "constant" 32 Sha256.digest_size

let test_update_bytes_slice () =
  let b = Bytes.of_string "xxabcyy" in
  let ctx = Sha256.init () in
  Sha256.update_bytes ctx b 2 3;
  Alcotest.(check string)
    "slice hashing"
    (Hex.encode (Sha256.digest "abc"))
    (Hex.encode (Sha256.finalize ctx))

let test_update_bytes_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Sha256.update_bytes: slice out of bounds") (fun () ->
      Sha256.update_bytes ctx (Bytes.create 4) (-1) 2)

(* ---------------- SHA-512 ---------------- *)

let sha512_vectors =
  [
    ( "",
      "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e" );
    ( "abc",
      "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909" );
  ]

let test_sha512_vectors () =
  List.iter (fun (input, expect) -> check_hex input expect (Sha512.hex input)) sha512_vectors

let test_sha512_size () =
  Alcotest.(check int) "64 bytes" 64 (String.length (Sha512.digest "x"));
  Alcotest.(check int) "constant" 64 Sha512.digest_size

let test_sha512_block_boundaries () =
  (* 128-byte blocks, 112-byte padding boundary. *)
  List.iter
    (fun len ->
      let s = String.make len 'y' in
      let ctx = Sha512.init () in
      String.iter (fun c -> Sha512.update ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d bytewise = one-shot" len)
        (Hex.encode (Sha512.digest s))
        (Hex.encode (Sha512.finalize ctx)))
    [ 0; 1; 111; 112; 113; 127; 128; 129; 255; 256 ]

let test_sha512_digest_list () =
  Alcotest.(check string) "list = concat"
    (Hex.encode (Sha512.digest "abc"))
    (Hex.encode (Sha512.digest_list [ "a"; ""; "bc" ]))

let qcheck_sha512_incremental =
  QCheck.Test.make ~name:"qcheck: sha512 random split incremental = one-shot" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 400)) (int_range 0 400))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let ctx = Sha512.init () in
      Sha512.update ctx (String.sub s 0 cut);
      Sha512.update ctx (String.sub s cut (String.length s - cut));
      Sha512.finalize ctx = Sha512.digest s)

let qcheck_incremental =
  QCheck.Test.make ~name:"qcheck: random split incremental = one-shot" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (int_range 0 300))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let ctx = Sha256.init () in
      Sha256.update ctx (String.sub s 0 cut);
      Sha256.update ctx (String.sub s cut (String.length s - cut));
      Sha256.finalize ctx = Sha256.digest s)

let test_midstate () =
  (* A snapshot after whole blocks resumes to the same digest, any number
     of times, and the snapshot is not disturbed by the resumed contexts. *)
  let prefix = String.init 128 (fun i -> Char.chr (i land 0xff)) in
  let ctx = Sha256.init () in
  Sha256.update ctx prefix;
  let m = Sha256.midstate ctx in
  List.iter
    (fun suffix ->
      let c = Sha256.resume m in
      Sha256.update c suffix;
      Alcotest.(check string)
        (Printf.sprintf "resume + %d bytes" (String.length suffix))
        (Hex.encode (Sha256.digest (prefix ^ suffix)))
        (Hex.encode (Sha256.finalize c)))
    [ ""; "abc"; String.make 55 'x'; String.make 56 'y'; String.make 200 'z'; "abc" ];
  Sha256.update ctx "a";
  Alcotest.check_raises "not at a block boundary"
    (Invalid_argument "Sha256.midstate: not at a block boundary") (fun () ->
      ignore (Sha256.midstate ctx : Sha256.midstate))

let qcheck_avalanche =
  QCheck.Test.make ~name:"qcheck: different inputs, different digests" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (string_of_size Gen.(1 -- 64)))
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let suite =
  [
    Alcotest.test_case "NIST vectors" `Quick test_vectors;
    Alcotest.test_case "million 'a'" `Slow test_million_a;
    Alcotest.test_case "block boundaries" `Quick test_block_boundaries;
    Alcotest.test_case "digest_list" `Quick test_digest_list;
    Alcotest.test_case "midstate resume" `Quick test_midstate;
    Alcotest.test_case "digest size" `Quick test_digest_size;
    Alcotest.test_case "update_bytes slice" `Quick test_update_bytes_slice;
    Alcotest.test_case "update_bytes bounds check" `Quick test_update_bytes_bounds;
    QCheck_alcotest.to_alcotest qcheck_incremental;
    QCheck_alcotest.to_alcotest qcheck_avalanche;
    Alcotest.test_case "sha512 NIST vectors" `Quick test_sha512_vectors;
    Alcotest.test_case "sha512 size" `Quick test_sha512_size;
    Alcotest.test_case "sha512 block boundaries" `Quick test_sha512_block_boundaries;
    Alcotest.test_case "sha512 digest_list" `Quick test_sha512_digest_list;
    QCheck_alcotest.to_alcotest qcheck_sha512_incremental;
  ]
