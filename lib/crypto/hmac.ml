let block_size = 64

let normalize_key key =
  if String.length key > block_size then Sha256.digest key else key

let pad key byte =
  let b = Bytes.make block_size (Char.chr byte) in
  String.iteri
    (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor byte)))
    key;
  Bytes.unsafe_to_string b

(* RFC 2104 section 4: the padded key blocks are absorbed once, and each
   tag resumes from the two chaining values, so a short message costs two
   compressions instead of four. *)
type key = { inner : Sha256.midstate; outer : Sha256.midstate }

let key raw =
  let raw = normalize_key raw in
  let absorb byte =
    let ctx = Sha256.init () in
    Sha256.update ctx (pad raw byte);
    Sha256.midstate ctx
  in
  { inner = absorb 0x36; outer = absorb 0x5c }

let mac_list k parts =
  let inner = Sha256.resume k.inner in
  List.iter (Sha256.update inner) parts;
  let inner_digest = Sha256.finalize inner in
  let outer = Sha256.resume k.outer in
  Sha256.update outer inner_digest;
  Sha256.finalize outer

let mac k msg = mac_list k [ msg ]
let sha256_list ~key:raw parts = mac_list (key raw) parts
let sha256 ~key:raw msg = mac (key raw) msg

let equal a b =
  String.length a = String.length b
  &&
  let acc = ref 0 in
  String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
  !acc = 0
