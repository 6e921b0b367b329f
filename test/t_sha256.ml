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

(* ---------------- against the 64-word-schedule implementation ---------------- *)

(* The SHA-256 this module replaced: a fresh 64-word schedule per
   context, every rotation as two shifts, and the padding built in a
   fresh buffer and absorbed through [update].  The tests below compare
   digests with it byte for byte across every padding edge, split point
   and block-boundary snapshot. *)
module Reference = struct
  let mask32 = 0xFFFFFFFF

  let k =
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
       0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
       0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
       0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
       0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
       0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
       0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
       0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
       0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
       0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
       0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

  type ctx = {
    h : int array;
    buf : Bytes.t;
    mutable buf_len : int;
    mutable total : int;
    w : int array;
  }

  let init () =
    {
      h =
        [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
           0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
      buf = Bytes.create 64;
      buf_len = 0;
      total = 0;
      w = Array.make 64 0;
    }

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

  let compress ctx block off =
    let w = ctx.w in
    for t = 0 to 15 do
      let i = off + (4 * t) in
      w.(t) <-
        (Char.code (Bytes.get block i) lsl 24)
        lor (Char.code (Bytes.get block (i + 1)) lsl 16)
        lor (Char.code (Bytes.get block (i + 2)) lsl 8)
        lor Char.code (Bytes.get block (i + 3))
    done;
    for t = 16 to 63 do
      let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
      let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
    done;
    let h = ctx.h in
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for t = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask32 in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let t2 = (s0 + maj) land mask32 in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land mask32;
      d := !c;
      c := !b;
      b := !a;
      a := (t1 + t2) land mask32
    done;
    h.(0) <- (h.(0) + !a) land mask32;
    h.(1) <- (h.(1) + !b) land mask32;
    h.(2) <- (h.(2) + !c) land mask32;
    h.(3) <- (h.(3) + !d) land mask32;
    h.(4) <- (h.(4) + !e) land mask32;
    h.(5) <- (h.(5) + !f) land mask32;
    h.(6) <- (h.(6) + !g) land mask32;
    h.(7) <- (h.(7) + !hh) land mask32

  let update_bytes ctx b off len =
    ctx.total <- ctx.total + len;
    let pos = ref off and remaining = ref len in
    if ctx.buf_len > 0 then begin
      let take = min !remaining (64 - ctx.buf_len) in
      Bytes.blit b !pos ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      pos := !pos + take;
      remaining := !remaining - take;
      if ctx.buf_len = 64 then begin
        compress ctx ctx.buf 0;
        ctx.buf_len <- 0
      end
    end;
    while !remaining >= 64 do
      compress ctx b !pos;
      pos := !pos + 64;
      remaining := !remaining - 64
    done;
    if !remaining > 0 then begin
      Bytes.blit b !pos ctx.buf 0 !remaining;
      ctx.buf_len <- !remaining
    end

  let update ctx s = update_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

  let finalize ctx =
    let bit_len = ctx.total * 8 in
    let pad_len =
      let r = (ctx.total + 1 + 8) mod 64 in
      if r = 0 then 1 else 1 + (64 - r)
    in
    let pad = Bytes.make (pad_len + 8) '\x00' in
    Bytes.set pad 0 '\x80';
    for i = 0 to 7 do
      Bytes.set pad (pad_len + i) (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
    done;
    let save_total = ctx.total in
    update_bytes ctx pad 0 (Bytes.length pad);
    ctx.total <- save_total;
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      let v = ctx.h.(i) in
      Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xFF));
      Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xFF));
      Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xFF));
      Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xFF))
    done;
    Bytes.unsafe_to_string out

  let digest s =
    let ctx = init () in
    update ctx s;
    finalize ctx
end

(* Bytes whose every bit position varies, so a wrong rotation or a
   misplaced length shows in the digest. *)
let message len = String.init len (fun i -> Char.chr (((i * 167) + (i lsr 3) + 29) land 0xff))

(* Every length from 0 to 200 bytes: the padding edges are 55 (0x80 and
   the length in one block), 56 (a second block) and 63, 64, 119 and
   120 one block on. *)
let test_reference_lengths () =
  for len = 0 to 200 do
    let s = message len in
    check_hex (Printf.sprintf "length %d" len) (Hex.encode (Reference.digest s))
      (Hex.encode (Sha256.digest s))
  done

let qcheck_reference_splits =
  QCheck.Test.make ~name:"qcheck: random update splits = reference digest" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (list_of_size Gen.(0 -- 6) (int_range 0 300)))
    (fun (s, cuts) ->
      let len = String.length s in
      let cuts = List.sort_uniq Int.compare (List.map (fun c -> min c len) cuts) in
      let ctx = Sha256.init () in
      let last =
        List.fold_left
          (fun from cut ->
            Sha256.update ctx (String.sub s from (cut - from));
            cut)
          0 cuts
      in
      Sha256.update ctx (String.sub s last (len - last));
      String.equal (Sha256.finalize ctx) (Reference.digest s))

(* A snapshot after 1, 2 or 3 whole blocks, resumed with suffixes that
   end on each padding edge. *)
let test_reference_midstate () =
  List.iter
    (fun blocks ->
      let prefix = message (64 * blocks) in
      let ctx = Sha256.init () in
      Sha256.update ctx prefix;
      let m = Sha256.midstate ctx in
      List.iter
        (fun suffix_len ->
          let suffix = String.make suffix_len 'q' in
          let c = Sha256.resume m in
          Sha256.update c suffix;
          check_hex
            (Printf.sprintf "%d blocks + %d bytes" blocks suffix_len)
            (Hex.encode (Reference.digest (prefix ^ suffix)))
            (Hex.encode (Sha256.finalize c)))
        [ 0; 1; 55; 56; 63; 64; 65; 119; 120; 200 ])
    [ 1; 2; 3 ]

(* A one-block digest allocates its context (record, chaining words,
   block buffer, 16-word schedule) and the 32-byte result: 48 words.  The
   64-word schedule and a fresh padding buffer took it to 105. *)
let test_digest_allocation () =
  let s = "abc" in
  let rounds = 1000 in
  ignore (Sha256.digest s : string);
  let w0 = Tutil.allocated_words () in
  for _ = 1 to rounds do
    ignore (Sha256.digest s : string)
  done;
  let per_digest = (Tutil.allocated_words () -. w0) /. float_of_int rounds in
  if per_digest > 50. then
    Alcotest.failf "one-block digest allocates %.1f words (bound 50)" per_digest

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
    Alcotest.test_case "every length to 200 = reference" `Quick test_reference_lengths;
    QCheck_alcotest.to_alcotest qcheck_reference_splits;
    Alcotest.test_case "midstate at block boundaries = reference" `Quick
      test_reference_midstate;
    Alcotest.test_case "one-block digest allocation" `Quick test_digest_allocation;
    Alcotest.test_case "sha512 NIST vectors" `Quick test_sha512_vectors;
    Alcotest.test_case "sha512 size" `Quick test_sha512_size;
    Alcotest.test_case "sha512 block boundaries" `Quick test_sha512_block_boundaries;
    Alcotest.test_case "sha512 digest_list" `Quick test_sha512_digest_list;
    QCheck_alcotest.to_alcotest qcheck_sha512_incremental;
  ]
