let small_primes =
  (* Sieve of Eratosthenes below 2000, computed once at load. *)
  let limit = 2000 in
  let composite = Array.make limit false in
  let primes = ref [] in
  for i = 2 to limit - 1 do
    if not composite.(i) then begin
      primes := i :: !primes;
      let j = ref (i * i) in
      while !j < limit do
        composite.(!j) <- true;
        j := !j + i
      done
    end
  done;
  Array.of_list (List.rev !primes)

let trial_division_passes n =
  (* true when no small prime divides n (and n is not itself small). *)
  let rec go i =
    if i >= Array.length small_primes then true
    else begin
      let p = small_primes.(i) in
      let _, r = Bigint.divmod_int n p in
      if r = 0 then false else go (i + 1)
    end
  in
  go 0

(* Uniform value in [2, n-3] from the byte oracle, by rejection on the
   bit length of n (at most two expected draws). *)
let random_base ~random n =
  let hi = Bigint.sub n (Bigint.of_int 3) in
  let bits = Bigint.bit_length hi in
  let nbytes = (bits + 7) / 8 in
  let rec draw () =
    let v = Bigint.of_bytes_be (random nbytes) in
    let v = Bigint.shift_right v ((8 * nbytes) - bits) in
    if Bigint.compare v hi > 0 then draw () else Bigint.add v Bigint.two
  in
  draw ()

let miller_rabin ~rounds ~random n =
  let n_minus_1 = Bigint.pred n in
  (* n - 1 = 2^s * d with d odd *)
  let rec split d s = if Bigint.is_odd d then (d, s) else split (Bigint.shift_right d 1) (s + 1) in
  let d, s = split n_minus_1 0 in
  let mont = Bigint.Mont.create n in
  (* The witness loop runs entirely in the Montgomery domain: one
     conversion per base, then the windowed ladder plus s-1 squarings,
     comparing against precomputed residues of 1 and n-1. *)
  let one_m = Bigint.Mont.to_mont mont Bigint.one in
  let n_minus_1_m = Bigint.Mont.to_mont mont n_minus_1 in
  let witness a =
    (* true when [a] witnesses compositeness *)
    let x = ref (Bigint.Mont.powm mont (Bigint.Mont.to_mont mont a) d) in
    if Bigint.Mont.elem_equal !x one_m || Bigint.Mont.elem_equal !x n_minus_1_m then false
    else begin
      let composite = ref true in
      (try
         for _ = 1 to s - 1 do
           x := Bigint.Mont.mul mont !x !x;
           if Bigint.Mont.elem_equal !x n_minus_1_m then begin
             composite := false;
             raise Exit
           end
         done
       with Exit -> ());
      !composite
    end
  in
  let rec rounds_loop k =
    if k = 0 then true
    else begin
      let a = random_base ~random n in
      if witness a then false else rounds_loop (k - 1)
    end
  in
  rounds_loop rounds

let is_probable_prime ?(rounds = 24) ~random n =
  if Bigint.sign n <= 0 then false
  else begin
    match Bigint.bit_length n with
    | bits when bits <= 21 ->
        (* Small enough for exact lookup against the limb value. *)
        let v = Bigint.to_int n in
        if v < 2 then false
        else begin
          let rec check i =
            if i >= Array.length small_primes then true
            else begin
              let p = small_primes.(i) in
              if p * p > v then true
              else if v mod p = 0 then v = p
              else check (i + 1)
            end
          in
          check 0
        end
    | _ ->
        Bigint.is_odd n && trial_division_passes n && miller_rabin ~rounds ~random n
  end

let gen_prime_with ~bits ~random accept =
  if bits < 8 then invalid_arg "Prime.gen_prime: bits must be >= 8";
  let nbytes = (bits + 7) / 8 in
  let rec candidate () =
    let raw = Bigint.of_bytes_be (random nbytes) in
    let v = Bigint.shift_right raw ((8 * nbytes) - bits) in
    (* Keep the low bits-2 bits, then force the top two bits and oddness. *)
    let low = Bigint.sub v (Bigint.shift_left (Bigint.shift_right v (bits - 2)) (bits - 2)) in
    let v = Bigint.add low (Bigint.shift_left (Bigint.of_int 3) (bits - 2)) in
    let v = if Bigint.is_even v then Bigint.succ v else v in
    if is_probable_prime ~random v && accept v then v else candidate ()
  in
  candidate ()

let gen_prime ~bits ~random = gen_prime_with ~bits ~random (fun _ -> true)
