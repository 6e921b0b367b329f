(* Sign-magnitude bignums over base-2^26 limbs (little-endian int arrays with
   no leading-zero limbs).  All magnitude helpers operate on bare arrays; the
   signed layer sits on top.  Limb products are at most (2^26-1)^2 < 2^52, so
   every accumulation below stays well within the 63-bit native int. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = { sign : int; mag : int array }
(* Invariants: sign in {-1,0,1}; sign = 0 iff mag = [||];
   mag has no trailing (most-significant) zero limb. *)

let abs_of_int m = if m < 0 then -m else m

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude primitives                                                *)
(* ------------------------------------------------------------------ *)

let normalize mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do decr n done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Int.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let ai = if i < la then a.(i) else 0 in
    let bi = if i < lb then b.(i) else 0 in
    let s = ai + bi + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r.(lr - 1) <- !carry;
  normalize r

(* Requires cmp_mag a b >= 0. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let s = a.(i) - bi - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let mul_mag_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let cur = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- cur land mask;
          carry := cur lsr limb_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    normalize r
  end

(* Karatsuba multiplication above ~32 limbs (~830 bits): three half-size
   products instead of four.  Magnitude-only; all intermediates are
   non-negative because (a0+a1)(b0+b1) >= a0*b0 + a1*b1. *)
let karatsuba_threshold = 32

let shift_limbs mag k =
  if Array.length mag = 0 then [||] else Array.append (Array.make k 0) mag

let rec mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if min la lb < karatsuba_threshold then mul_mag_school a b
  else begin
    let m = (max la lb + 1) / 2 in
    let lo mag = normalize (Array.sub mag 0 (min m (Array.length mag))) in
    let hi mag =
      if Array.length mag <= m then [||] else Array.sub mag m (Array.length mag - m)
    in
    let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
    let z0 = mul_mag a0 b0 in
    let z2 = mul_mag a1 b1 in
    let z1 = sub_mag (mul_mag (add_mag a0 a1) (add_mag b0 b1)) (add_mag z0 z2) in
    normalize (add_mag (add_mag (shift_limbs z2 (2 * m)) (shift_limbs z1 m)) z0)
  end

let mul_mag_int a m =
  (* m must satisfy 0 <= m < base *)
  if m = 0 || Array.length a = 0 then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let cur = (a.(i) * m) + !carry in
      r.(i) <- cur land mask;
      carry := cur lsr limb_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let limb_width v =
  let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
  width v 0

let bit_length_mag mag =
  let n = Array.length mag in
  if n = 0 then 0 else ((n - 1) * limb_bits) + limb_width mag.(n - 1)

let test_bit_mag mag i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length mag && (mag.(limb) lsr off) land 1 = 1

let shift_left_mag mag k =
  if Array.length mag = 0 || k = 0 then mag
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length mag in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = mag.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right_mag mag k =
  let limbs = k / limb_bits and bits = k mod limb_bits in
  let la = Array.length mag in
  if limbs >= la then [||]
  else begin
    let lr = la - limbs in
    let r = Array.make lr 0 in
    for i = 0 to lr - 1 do
      let lo = mag.(i + limbs) lsr bits in
      let hi = if i + limbs + 1 < la then (mag.(i + limbs + 1) lsl (limb_bits - bits)) land mask else 0 in
      r.(i) <- if bits = 0 then mag.(i + limbs) else lo lor hi
    done;
    normalize r
  end

let divmod_mag_int a m =
  (* m in (0, base). Returns (quotient mag, int remainder). *)
  if m <= 0 || m >= base then invalid_arg "Bigint.divmod_int: divisor out of range";
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / m;
    r := cur mod m
  done;
  (normalize q, !r)

(* [mag * 2^s], 0 <= s < limb_bits, into exactly [len] limbs (the caller
   guarantees the shifted value fits). *)
let shl_limbs mag s len =
  let r = Array.make len 0 in
  let carry = ref 0 in
  for i = 0 to Array.length mag - 1 do
    let v = (mag.(i) lsl s) lor !carry in
    r.(i) <- v land mask;
    carry := v lsr limb_bits
  done;
  if !carry <> 0 then r.(Array.length mag) <- !carry;
  r

(* Long division on magnitudes: Knuth's Algorithm D (TAOCP vol. 2,
   4.3.1), one quotient limb per step.  D1 shifts both operands left by
   [s] so the divisor's top limb has bit 25 set; the two-limb estimate
   [qhat] is then at most 2 too large, the [v.(n-2)] test removes all but
   a rare excess of 1, and the add-back step (D6) repairs that one.
   Bounds: the estimate's numerator is < 2^52; after the test
   qhat < base, so qhat * v.(i) + carry < 2^52 + 2^27 < 2^53 and
   qhat * v.(n-2) < 2^27 * 2^26 = 2^53 during the test itself. *)
let divmod_mag a b =
  let n = Array.length b in
  if n = 0 then raise Division_by_zero;
  if cmp_mag a b < 0 then ([||], a)
  else if n = 1 then begin
    let q, r = divmod_mag_int a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else begin
    let la = Array.length a in
    let s = limb_bits - limb_width b.(n - 1) in
    let v = shl_limbs b s n in
    let u = shl_limbs a s (la + 1) in
    let m = la - n in
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) and vnext = v.(n - 2) in
    for j = m downto 0 do
      let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      let testing = ref true in
      while !testing do
        if !qhat >= base || !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + vtop;
          testing := !rhat < base
        end
        else testing := false
      done;
      (* D4: u[j..j+n] -= qhat * v *)
      let carry = ref 0 and borrow = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr limb_bits;
        let t = u.(i + j) - (p land mask) - !borrow in
        if t < 0 then begin
          u.(i + j) <- t + base;
          borrow := 1
        end
        else begin
          u.(i + j) <- t;
          borrow := 0
        end
      done;
      let top = u.(j + n) - !carry - !borrow in
      if top >= 0 then u.(j + n) <- top
      else begin
        (* D6: qhat was one too large; add v back.  The window is then in
           [0, v), so its top limb is zero and the final carry drops. *)
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let t = u.(i + j) + v.(i) + !c in
          u.(i + j) <- t land mask;
          c := t lsr limb_bits
        done;
        u.(j + n) <- 0
      end;
      q.(j) <- !qhat
    done;
    (normalize q, shift_right_mag (Array.sub u 0 n) s)
  end

(* ------------------------------------------------------------------ *)
(* Signed layer                                                        *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = normalize mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else if n = min_int then begin
    (* abs min_int is still min_int, so build |min_int| = 2^(int_size-1)
       directly instead of decomposing a negative value. *)
    let bit = Sys.int_size - 1 in
    let mag = Array.make ((bit / limb_bits) + 1) 0 in
    mag.(bit / limb_bits) <- 1 lsl (bit mod limb_bits);
    { sign = -1; mag }
  end
  else begin
    let sign = if n < 0 then -1 else 1 in
    let v = abs n in
    let rec limbs v = if v = 0 then [] else (v land mask) :: limbs (v lsr limb_bits) in
    { sign; mag = Array.of_list (limbs v) }
  end

let one = of_int 1
let two = of_int 2

let to_int t =
  let bits = bit_length_mag t.mag in
  if bits < Sys.int_size then begin
    let v = Array.fold_right (fun limb acc -> (acc lsl limb_bits) lor limb) t.mag 0 in
    if t.sign < 0 then -v else v
  end
  else begin
    (* The only representable magnitude with int_size bits is |min_int|. *)
    let top = Array.length t.mag - 1 in
    let is_min_int =
      t.sign < 0
      && bits = Sys.int_size
      && t.mag.(top) = 1 lsl ((Sys.int_size - 1) mod limb_bits)
      && Array.for_all (fun l -> l = 0) (Array.sub t.mag 0 top)
    in
    if is_min_int then min_int else failwith "Bigint.to_int: overflow"
  end

let sign t = t.sign
let is_zero t = t.sign = 0
let is_even t = t.sign = 0 || t.mag.(0) land 1 = 0
let is_odd t = not (is_even t)

let equal a b = a.sign = b.sign && cmp_mag a.mag b.mag = 0

(* Named so that internal call sites are unambiguously the typed
   comparator (the bare name [compare] would shadow-resolve here too, but
   coinlint's poly-compare rule is untyped and cannot see that). *)
let compare_big a b =
  if a.sign <> b.sign then Int.compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let compare = compare_big

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (add_mag a.mag b.mag)
  else begin
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (sub_mag a.mag b.mag)
    else make b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mul_mag a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let qm, rm = divmod_mag a.mag b.mag in
  let q = make (a.sign * b.sign) qm in
  let r = make a.sign rm in
  (q, r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let erem a b =
  let r = rem a b in
  if r.sign < 0 then add r (abs b) else r

let succ t = add t one
let pred t = sub t one

let mul_int a m =
  if m = 0 || a.sign = 0 then zero
  else if abs_of_int m < base then make (a.sign * if m < 0 then -1 else 1) (mul_mag_int a.mag (abs_of_int m))
  else mul a (of_int m)
let add_int a m = add a (of_int m)

let divmod_int a m =
  if a.sign < 0 then invalid_arg "Bigint.divmod_int: negative dividend";
  let qm, r = divmod_mag_int a.mag m in
  (make 1 qm, r)

let bit_length t = bit_length_mag t.mag
let test_bit t i = test_bit_mag t.mag i

let shift_left t k =
  if k < 0 then invalid_arg "Bigint.shift_left: negative shift";
  if t.sign = 0 then zero else make t.sign (shift_left_mag t.mag k)

let shift_right t k =
  if k < 0 then invalid_arg "Bigint.shift_right: negative shift";
  if t.sign = 0 then zero else make t.sign (shift_right_mag t.mag k)

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let of_bytes_be s =
  let n = String.length s in
  let nbits = 8 * n in
  let nlimbs = (nbits + limb_bits - 1) / limb_bits in
  let mag = Array.make (max 1 nlimbs) 0 in
  for i = 0 to n - 1 do
    let byte = Char.code s.[n - 1 - i] in
    let bit = 8 * i in
    let limb = bit / limb_bits and off = bit mod limb_bits in
    mag.(limb) <- mag.(limb) lor ((byte lsl off) land mask);
    if off > limb_bits - 8 then mag.(limb + 1) <- mag.(limb + 1) lor (byte lsr (limb_bits - off))
  done;
  make 1 mag

let to_bytes_be ?len t =
  if t.sign < 0 then invalid_arg "Bigint.to_bytes_be: negative";
  let nbytes = (bit_length t + 7) / 8 in
  let out_len = match len with None -> max nbytes 1 | Some l -> l in
  if nbytes > out_len then invalid_arg "Bigint.to_bytes_be: value too large for len";
  let b = Bytes.make out_len '\x00' in
  for i = 0 to nbytes - 1 do
    (* byte i counted from the least-significant end *)
    let bit = 8 * i in
    let limb = bit / limb_bits and off = bit mod limb_bits in
    let v = t.mag.(limb) lsr off in
    let v =
      if off > limb_bits - 8 && limb + 1 < Array.length t.mag then
        v lor (t.mag.(limb + 1) lsl (limb_bits - off))
      else v
    in
    Bytes.set b (out_len - 1 - i) (Char.chr (v land 0xFF))
  done;
  Bytes.unsafe_to_string b

let of_hex s =
  if s = "" then invalid_arg "Bigint.of_hex: empty";
  let negative = s.[0] = '-' in
  let body = if negative then String.sub s 1 (String.length s - 1) else s in
  if body = "" then invalid_arg "Bigint.of_hex: empty magnitude";
  let padded = if String.length body mod 2 = 1 then "0" ^ body else body in
  let v = of_bytes_be (Crypto.Hex.decode padded) in
  if negative then neg v else v

let to_hex t =
  if t.sign = 0 then "0"
  else begin
    let raw = Crypto.Hex.encode (to_bytes_be (abs t)) in
    let i = ref 0 in
    while !i < String.length raw - 1 && raw.[!i] = '0' do incr i done;
    let body = String.sub raw !i (String.length raw - !i) in
    if t.sign < 0 then "-" ^ body else body
  end

(* Decimal I/O works in 7-digit chunks: 10^7 < 2^26, so the chunked
   operations stay within the single-limb fast paths. *)
let decimal_chunk = 10_000_000
let decimal_chunk_digits = 7

let of_string s =
  if s = "" then invalid_arg "Bigint.of_string: empty";
  let negative = s.[0] = '-' in
  let start = if negative then 1 else 0 in
  if String.length s = start then invalid_arg "Bigint.of_string: empty magnitude";
  let acc = ref zero in
  let chunk = ref 0 and chunk_len = ref 0 in
  let flush () =
    if !chunk_len > 0 then begin
      let scale =
        let rec pow10 k acc = if k = 0 then acc else pow10 (k - 1) (acc * 10) in
        pow10 !chunk_len 1
      in
      acc := add (mul_int !acc scale) (of_int !chunk);
      chunk := 0;
      chunk_len := 0
    end
  in
  for i = start to String.length s - 1 do
    match s.[i] with
    | '0' .. '9' ->
        chunk := (!chunk * 10) + (Char.code s.[i] - Char.code '0');
        incr chunk_len;
        if !chunk_len = decimal_chunk_digits then flush ()
    | _ -> invalid_arg "Bigint.of_string: non-digit character"
  done;
  flush ();
  if negative then neg !acc else !acc

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let rec chunks v acc =
      if v.sign = 0 then acc
      else begin
        let q, r = divmod_int v decimal_chunk in
        chunks q (r :: acc)
      end
    in
    match chunks (abs t) [] with
    | [] -> "0"
    | first :: rest ->
        let buf = Buffer.create 32 in
        if t.sign < 0 then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%07d" c)) rest;
        Buffer.contents buf
  end

let isqrt t =
  if t.sign < 0 then invalid_arg "Bigint.isqrt: negative";
  if t.sign = 0 then zero
  else begin
    (* Newton iteration from an over-estimate; decreasing, so the first
       non-decreasing step has converged. *)
    let x = ref (shift_left one ((bit_length t + 2) / 2)) in
    let continue = ref true in
    while !continue do
      let next = shift_right (add !x (div t !x)) 1 in
      if compare_big next !x >= 0 then continue := false else x := next
    done;
    !x
  end

let pp fmt t = Format.fprintf fmt "0x%s" (to_hex t)

(* ------------------------------------------------------------------ *)
(* Number theory                                                       *)
(* ------------------------------------------------------------------ *)

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let egcd a b =
  (* Iterative extended Euclid on signed values. *)
  let rec go r0 r1 s0 s1 t0 t1 =
    if is_zero r1 then (r0, s0, t0)
    else begin
      let q, r2 = divmod r0 r1 in
      go r1 r2 s1 (sub s0 (mul q s1)) t1 (sub t0 (mul q t1))
    end
  in
  let g, x, y = go a b one zero zero one in
  if g.sign < 0 then (neg g, neg x, neg y) else (g, x, y)

let invmod a m =
  if m.sign <= 0 then invalid_arg "Bigint.invmod: modulus must be positive";
  let g, x, _ = egcd (erem a m) m in
  if equal g one then Some (erem x m) else None

(* Jacobi symbol (a/n) for odd n > 0, by binary reciprocity: strip
   factors of 2 from a, using (2/n) = -1 iff n = 3 or 5 (mod 8); then
   swap a and n, flipping the sign iff both are 3 (mod 4), and reduce. *)
let jacobi a n =
  if n.sign <= 0 || is_even n then invalid_arg "Bigint.jacobi: modulus must be odd and positive";
  let rec go a n acc =
    (* 0 <= a < n, n odd *)
    if a.sign = 0 then if equal n one then acc else 0
    else begin
      let z = ref 0 in
      while not (test_bit a !z) do incr z done;
      let a = shift_right a !z in
      let n8 = n.mag.(0) land 7 in
      let acc = if !z land 1 = 1 && (n8 = 3 || n8 = 5) then -acc else acc in
      let acc = if a.mag.(0) land 3 = 3 && n8 land 3 = 3 then -acc else acc in
      go (erem n a) a acc
    end
  in
  go (erem a n) n 1

(* Generic modular exponentiation by repeated squaring with division-based
   reduction; used only when the modulus is even (tests).  Odd moduli go
   through Montgomery (see below / Mont). *)
let modpow_generic b e m =
  let b = ref (erem b m) in
  let result = ref (erem one m) in
  let nbits = bit_length e in
  for i = 0 to nbits - 1 do
    if test_bit e i then result := erem (mul !result !b) m;
    if i < nbits - 1 then b := erem (mul !b !b) m
  done;
  !result

(* Montgomery arithmetic is implemented here rather than in a separate
   module so that it can work on raw magnitudes without exposing the
   representation; Mont re-exports a context API on top of this.

   Residues ("elements") are fully reduced len-limb arrays in the
   Montgomery domain (x*R mod m with R = base^len).  The kernel below
   accumulates into a per-context scratch buffer and writes its result
   into a caller-provided destination, so an exponentiation loop performs
   zero per-step allocation.  Contexts are therefore not re-entrant: one
   kernel call at a time per context. *)

type mont_ctx = {
  m_mag : int array;          (* modulus magnitude, length len *)
  len : int;
  n0' : int;                  (* -m^{-1} mod base *)
  r2 : int array;             (* R^2 mod m, for conversion *)
  one_m : int array;          (* R mod m: 1 in Montgomery form *)
  scratch : int array;        (* len+1 limbs shared by all kernel calls *)
  m_big : t;
}

let mont_create m =
  if m.sign <= 0 then invalid_arg "Bigint: modulus must be positive";
  if is_even m then invalid_arg "Bigint: Montgomery requires odd modulus";
  let m_mag = m.mag in
  let len = Array.length m_mag in
  (* Newton iteration for the inverse of m mod 2^26. *)
  let m0 = m_mag.(0) in
  let inv = ref 1 in
  for _ = 1 to 5 do
    inv := (!inv * (2 - (m0 * !inv))) land mask
  done;
  assert ((m0 * !inv) land mask = 1);
  let n0' = (base - !inv) land mask in
  (* R and R^2 mod m where R = base^len. *)
  let r = erem (shift_left one (limb_bits * len)) m in
  let r2 = erem (mul r r) m in
  let pad a = Array.append a.mag (Array.make (len - Array.length a.mag) 0) in
  {
    m_mag;
    len;
    n0';
    r2 = pad r2;
    one_m = pad r;
    scratch = Array.make (len + 1) 0;
    m_big = m;
  }

(* Copy the len-limb value at [t.(0) .. t.(len-1)] (with overflow limb at
   [t.(len)]) into [dst], subtracting m once if needed.  The kernel
   leaves a value < 2m here, so one conditional subtraction fully
   reduces. *)
let mont_reduce_out ctx dst t =
  let len = ctx.len and m = ctx.m_mag in
  (* A loop, not a local recursive function: without flambda a closure
     over [t] and [m] would be allocated on every kernel call. *)
  let i = ref (len - 1) in
  while !i >= 0 && t.(!i) = m.(!i) do decr i done;
  let ge = t.(len) > 0 || !i < 0 || t.(!i) > m.(!i) in
  if ge then begin
    let borrow = ref 0 in
    for i = 0 to len - 1 do
      let s = t.(i) - m.(i) - !borrow in
      if s < 0 then begin
        dst.(i) <- s + base;
        borrow := 1
      end
      else begin
        dst.(i) <- s;
        borrow := 0
      end
    done
  end
  else Array.blit t 0 dst 0 len

(* Fused CIOS Montgomery multiplication: dst <- a*b*R^{-1} mod m.  [dst]
   may alias [a] or [b] (the accumulator is the context scratch; [dst] is
   written only at the very end), so [mont_mul_into ctx x x x] squares in
   place: every ladder below squares this way.

   Inputs must be fully reduced (< m), which every producer in this file
   guarantees; then the standard CIOS invariant keeps the accumulator
   below 2m at all times, so the overflow limb t.(len) stays in {0,1} and
   one conditional subtraction at the end fully reduces.

   One pass per limb of [a] handles both the a_i*b addition and the
   Montgomery reduction step: cur = t_j + a_i*b_j + u*m_j + carry is at
   most 2^26 + 2*(2^26-1)^2 + 2^28 < 2^54, comfortably inside the native
   int.  Indices are bounded by [len <= Array.length] of every array
   involved (a, b, m are len limbs; t is len+1), so the unsafe accesses
   below are in range by construction. *)
let mont_mul_into ctx dst a b =
  let len = ctx.len in
  let m = ctx.m_mag in
  let t = ctx.scratch in
  Array.fill t 0 (len + 1) 0;
  let b0 = Array.unsafe_get b 0 and m0 = Array.unsafe_get m 0 in
  for i = 0 to len - 1 do
    let ai = Array.unsafe_get a i in
    (* u makes the low limb of t + ai*b + u*m vanish *)
    let t0 = Array.unsafe_get t 0 + (ai * b0) in
    let u = ((t0 land mask) * ctx.n0') land mask in
    let carry = ref ((t0 + (u * m0)) lsr limb_bits) in
    for j = 1 to len - 1 do
      let cur =
        Array.unsafe_get t j + (ai * Array.unsafe_get b j) + (u * Array.unsafe_get m j) + !carry
      in
      Array.unsafe_set t (j - 1) (cur land mask);
      carry := cur lsr limb_bits
    done;
    let cur = Array.unsafe_get t len + !carry in
    Array.unsafe_set t (len - 1) (cur land mask);
    Array.unsafe_set t len (cur lsr limb_bits)
  done;
  mont_reduce_out ctx dst t

let mont_pad ctx a = Array.append a.mag (Array.make (ctx.len - Array.length a.mag) 0)

(* x -> x*R mod m.  Reduces first, so any non-negative input is accepted. *)
let mont_of_bigint ctx x =
  let xm = mont_pad ctx (erem x ctx.m_big) in
  mont_mul_into ctx xm xm ctx.r2;
  xm

(* x*R -> x mod m: multiply by the plain 1 (REDC by one limb at a time). *)
let mont_to_bigint ctx a =
  let one_arr = Array.make ctx.len 0 in
  one_arr.(0) <- 1;
  let dst = Array.make ctx.len 0 in
  mont_mul_into ctx dst a one_arr;
  make 1 dst

(* Binary square-and-multiply ladder over the in-place kernels; the
   reference implementation the windowed ladders are checked against. *)
let mont_pow_elem_binary ctx bm e =
  let acc = Array.copy ctx.one_m in
  for i = bit_length e - 1 downto 0 do
    mont_mul_into ctx acc acc acc;
    if test_bit e i then mont_mul_into ctx acc acc bm
  done;
  acc

(* Window width by exponent size: the 2^(w-1)-entry odd-power table must
   amortize over nbits/w multiplies. *)
let mont_window_bits nbits =
  if nbits <= 8 then 1 else if nbits <= 24 then 2 else if nbits <= 96 then 3 else 4

(* tbl.(k) = b^(2k+1) in Montgomery form, 2^(w-1) entries. *)
let mont_odd_powers ctx bm w =
  let tbl = Array.make (1 lsl (w - 1)) bm in
  if w > 1 then begin
    let b2 = Array.make ctx.len 0 in
    mont_mul_into ctx b2 bm bm;
    for k = 1 to Array.length tbl - 1 do
      let p = Array.make ctx.len 0 in
      mont_mul_into ctx p tbl.(k - 1) b2;
      tbl.(k) <- p
    done
  end;
  tbl

(* Sliding-window digit scan, the one window decomposition every windowed
   ladder below uses.  Scanning MSB->LSB, the window that starts at set
   bit [hi] is the widest [lo..hi] of at most [w] bits whose low bit [lo]
   is set, so its value is odd and indexes the odd-power table (2^(w-1)
   entries instead of 2^w).  A cursor holds the pending window; the
   ladder squares once per bit and, at bit [lo], multiplies in the table
   entry and moves the cursor to the next window.  Any decomposition
   re-associates the same product, so results are bit-identical to the
   binary ladder (fuzzed in test/t_fuzz.ml). *)
type window_cursor = {
  e : t;
  w : int;
  tbl : int array array;
  mutable hi : int;  (* -1 once the exponent is exhausted *)
  mutable lo : int;
}

let window_low e w hi =
  let lo = ref (max 0 (hi - w + 1)) in
  while not (test_bit e !lo) do incr lo done;
  !lo

let window_cursor ctx bm e =
  let nbits = bit_length e in
  let w = mont_window_bits nbits in
  let hi = nbits - 1 in
  {
    e;
    w;
    tbl = (if nbits = 0 then [||] else mont_odd_powers ctx bm w);
    hi;
    lo = (if hi < 0 then -1 else window_low e w hi);
  }

let window_step ctx acc c i =
  if i = c.lo then begin
    let v = ref 0 in
    for k = c.hi downto c.lo do
      v := (!v lsl 1) lor if test_bit c.e k then 1 else 0
    done;
    mont_mul_into ctx acc acc c.tbl.((!v - 1) / 2);
    let hi = ref (i - 1) in
    while !hi >= 0 && not (test_bit c.e !hi) do decr hi done;
    c.hi <- !hi;
    c.lo <- (if !hi < 0 then -1 else window_low c.e c.w !hi)
  end

(* Straus's simultaneous exponentiation: b1^e1 * b2^e2 with both
   exponents' windows multiplied into one squaring chain, so the pair
   costs max(bits) squarings instead of bits(e1) + bits(e2).  Allocates
   the two odd-power tables, the cursors and the accumulator, none of it
   per bit. *)
let mont_pow2_elem ctx b1 e1 b2 e2 =
  let c1 = window_cursor ctx b1 e1 and c2 = window_cursor ctx b2 e2 in
  let acc = Array.copy ctx.one_m in
  for i = max c1.hi c2.hi downto 0 do
    mont_mul_into ctx acc acc acc;
    window_step ctx acc c1 i;
    window_step ctx acc c2 i
  done;
  acc

let mont_pow_elem ctx bm e = mont_pow2_elem ctx bm e bm zero

(* Lim-Lee fixed-base comb with four rows.  An exponent of at most
   4*cols bits is read as a 4 x cols bit matrix whose row r holds bits
   [r*cols, (r+1)*cols); column k is the 4-bit index
   sum_r bit(r*cols + k) << r.  With rows.(i) = prod_{r in i} b^(2^(r*cols))
   we get b^e = prod_k rows.(column k)^(2^k): cols squarings and at most
   cols multiplies, against ~bits squarings for a ladder.  The table costs
   3*cols squarings and 11 multiplies once per base.  Two combs of equal
   width share one squaring chain. *)
type comb = { cols : int; rows : int array array }

let comb_rows = 4

let mont_comb ctx bm ~bits =
  if bits < 1 then invalid_arg "Bigint.Mont.comb: bits must be positive";
  let cols = (bits + comb_rows - 1) / comb_rows in
  let rows = Array.make (1 lsl comb_rows) ctx.one_m in
  rows.(1) <- bm;
  for r = 1 to comb_rows - 1 do
    let x = Array.copy rows.(1 lsl (r - 1)) in
    for _ = 1 to cols do
      mont_mul_into ctx x x x
    done;
    rows.(1 lsl r) <- x
  done;
  for i = 3 to Array.length rows - 1 do
    let low = i land -i in
    if low <> i then begin
      let p = Array.make ctx.len 0 in
      mont_mul_into ctx p rows.(i - low) rows.(low);
      rows.(i) <- p
    end
  done;
  { cols; rows }

let comb_capacity c = comb_rows * c.cols

let comb_column e cols k =
  let d = ref 0 in
  for r = comb_rows - 1 downto 0 do
    d := (!d lsl 1) lor if test_bit e ((r * cols) + k) then 1 else 0
  done;
  !d

let check_exponent fn e =
  if e.sign < 0 then invalid_arg ("Bigint.Mont." ^ fn ^ ": negative exponent")

let check_comb_exponent fn c e =
  check_exponent fn e;
  if bit_length e > comb_capacity c then
    invalid_arg ("Bigint.Mont." ^ fn ^ ": exponent wider than the comb")

let mont_comb_pow2 ctx c1 e1 c2 e2 =
  check_comb_exponent "comb_pow2" c1 e1;
  check_comb_exponent "comb_pow2" c2 e2;
  if c1.cols <> c2.cols then invalid_arg "Bigint.Mont.comb_pow2: combs of different widths";
  let cols = c1.cols in
  let acc = Array.copy ctx.one_m in
  for k = cols - 1 downto 0 do
    mont_mul_into ctx acc acc acc;
    let d1 = comb_column e1 cols k and d2 = comb_column e2 cols k in
    if d1 <> 0 then mont_mul_into ctx acc acc c1.rows.(d1);
    if d2 <> 0 then mont_mul_into ctx acc acc c2.rows.(d2)
  done;
  acc

let mont_pow ctx b e =
  check_exponent "pow" e;
  if is_zero e then erem one ctx.m_big
  else mont_to_bigint ctx (mont_pow_elem ctx (mont_of_bigint ctx b) e)

let mont_pow_binary ctx b e =
  check_exponent "pow_binary" e;
  if is_zero e then erem one ctx.m_big
  else mont_to_bigint ctx (mont_pow_elem_binary ctx (mont_of_bigint ctx b) e)

let modpow b e m =
  if m.sign <= 0 then invalid_arg "Bigint.modpow: modulus must be positive";
  if e.sign < 0 then invalid_arg "Bigint.modpow: negative exponent";
  if equal m one then zero
  else if is_zero e then one
  else if is_odd m then mont_pow (mont_create m) b e
  else modpow_generic b e m

module Mont = struct
  type nonrec t = mont_ctx
  type elem = int array

  let create = mont_create
  let modulus ctx = ctx.m_big
  let to_mont = mont_of_bigint
  let of_mont = mont_to_bigint

  let mul ctx a b =
    let dst = Array.make ctx.len 0 in
    mont_mul_into ctx dst a b;
    dst

  (* Montgomery residues are fully reduced, so the map value -> limbs is
     injective and plain structural equality decides equality mod m. *)
  let elem_equal (a : elem) b = a = b

  let powm ctx bm e =
    check_exponent "powm" e;
    mont_pow_elem ctx bm e

  let pow2 ctx b1 e1 b2 e2 =
    check_exponent "pow2" e1;
    check_exponent "pow2" e2;
    mont_pow2_elem ctx b1 e1 b2 e2

  let pow = mont_pow
  let pow_binary = mont_pow_binary

  type nonrec comb = comb

  let comb = mont_comb
  let comb_capacity = comb_capacity

  let comb_pow ctx c e =
    check_comb_exponent "comb_pow" c e;
    mont_comb_pow2 ctx c e c zero

  let comb_pow2 = mont_comb_pow2
end
