(* SHA-256 over native ints (63-bit), masking every 32-bit result.  The
   message schedule and working variables follow FIPS 180-4 section 6.2. *)

let digest_size = 32
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
  h : int array;               (* 8 chaining words *)
  buf : Bytes.t;               (* 64-byte block buffer, also the padding *)
  mutable buf_len : int;       (* bytes currently in [buf] *)
  mutable total : int;         (* total bytes absorbed *)
  w : int array;               (* rolling 16-word message schedule *)
}

let fresh h total = { h; buf = Bytes.create 64; buf_len = 0; total; w = Array.make 16 0 }

let init () =
  fresh
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
       0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
    0

(* The word [x] (32 bits) with its bits 0-30 copied into bits 32-62; bit
   31 falls off the 63-bit int.  Bits n..n+31 of the result are [x]
   rotated right by n whenever the copy holds every bit they read: bit
   n+i (i < 32) is [x]'s bit n+i below 32 and its bit n+i-32 <= n-1
   above, so any n <= 31 works.  Every rotation below is by at most 25
   (top bit read: 56), so a rotation is one [lsr] and the final mask. *)
let[@inline] dup x = x lor (x lsl 32)

let[@inline] big_sigma0 a =
  let d = dup a in
  ((d lsr 2) lxor (d lsr 13) lxor (d lsr 22)) land mask32

let[@inline] big_sigma1 e =
  let d = dup e in
  ((d lsr 6) lxor (d lsr 11) lxor (d lsr 25)) land mask32

let[@inline] small_sigma0 x =
  let d = dup x in
  (((d lsr 7) lxor (d lsr 18)) land mask32) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let d = dup x in
  (((d lsr 17) lxor (d lsr 19)) land mask32) lxor (x lsr 10)

(* W_t for t >= 16 overwrites W_{t-16} in slot [t land 15]: the rounds
   read each schedule word once, in order, so 16 slots hold every word
   still to be read. *)
let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * t))) land mask32
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let j = t land 15 in
    if t >= 16 then
      w.(j) <-
        (w.(j) + small_sigma0 w.((t - 15) land 15) + w.((t - 7) land 15)
        + small_sigma1 w.((t - 2) land 15))
        land mask32;
    let ch = !g lxor (!e land (!f lxor !g)) in
    let t1 = !hh + big_sigma1 !e + ch + k.(t) + w.(j) in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    let t2 = big_sigma0 !a + maj in
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
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.update_bytes: slice out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled buffer first. *)
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

(* A chaining-value snapshot taken at a block boundary: the state after
   whole blocks only, so resuming it needs no buffered bytes.  Immutable:
   [resume] copies the words into a fresh context. *)
type midstate = { mh : int array; mtotal : int }

let midstate ctx =
  if ctx.buf_len <> 0 then invalid_arg "Sha256.midstate: not at a block boundary";
  { mh = Array.copy ctx.h; mtotal = ctx.total }

let resume m = fresh (Array.copy m.mh) m.mtotal

(* Padding, in the block buffer: 0x80, zeros, and the 64-bit big-endian
   bit length in bytes 56-63.  With more than 55 bytes buffered the
   length does not fit after the 0x80, so that block is compressed as
   is and the length goes into a second, otherwise zero, block. *)
let finalize ctx =
  let buf = ctx.buf and used = ctx.buf_len in
  Bytes.set buf used '\x80';
  if used >= 56 then begin
    Bytes.fill buf (used + 1) (63 - used) '\x00';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf (used + 1) (55 - used) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total lsl 3));
  compress ctx buf 0;
  ctx.buf_len <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let digest_list parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  finalize ctx

let hex s = Hex.encode (digest s)
