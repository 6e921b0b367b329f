(* Schedule fuzzing: qcheck-generated composite adversaries (scheduler
   shape x corruption mix x crash timing x inputs) thrown at Algorithm 4
   and the baselines, asserting safety on every run.  A miniature Jepsen:
   the generator explores the adversary space, the property is always
   "agreement and validity, and if the run completed, everyone decided". *)

open Core

let n = 32
let keyring = lazy (Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"fuzz" ())
let params = lazy (Tutil.robust_params n)

(* ------------- adversary description & generator ------------- *)

type sched_kind = S_random | S_fifo | S_split | S_targeted | S_gst

type adversary = {
  sched : sched_kind;
  sched_param : float;          (* delay factor / gst, kind-dependent *)
  crashes : int list;           (* crashed before the run *)
  midrun_crashes : (int * int) list;  (* (pid, after this many deliveries) *)
  two_face : int list;          (* equivocators *)
  ones : int;                   (* inputs: first [ones] processes propose 1 *)
}

let total_corrupted a =
  List.length
    (List.sort_uniq compare (a.crashes @ List.map fst a.midrun_crashes @ a.two_face))

let gen_adversary =
  let open QCheck.Gen in
  let* sched = oneofl [ S_random; S_fifo; S_split; S_targeted; S_gst ] in
  let* sched_param = float_range 2.0 60.0 in
  let p = Lazy.force params in
  let f = p.Params.f in
  let* n_crash = 0 -- (f / 2) in
  let* n_mid = 0 -- (f / 2) in
  let* n_twoface = 0 -- (f - n_crash - n_mid) in
  let distinct_pids k exclude =
    (* deterministic-ish distinct picks from the generator *)
    let* seeds = list_repeat k (0 -- 10_000) in
    let rec place acc = function
      | [] -> return acc
      | s :: rest ->
          let pid = s mod n in
          let rec free pid = if List.mem pid acc || List.mem pid exclude then free ((pid + 1) mod n) else pid in
          place (free pid :: acc) rest
    in
    place [] seeds
  in
  let* crashes = distinct_pids n_crash [] in
  let* mid_pids = distinct_pids n_mid crashes in
  let* mid_delays = list_repeat n_mid (1 -- 3000) in
  let* two_face = distinct_pids n_twoface (crashes @ mid_pids) in
  let* ones = 0 -- n in
  return
    {
      sched;
      sched_param;
      crashes;
      midrun_crashes = List.combine mid_pids mid_delays;
      two_face;
      ones;
    }

let print_adversary a =
  Printf.sprintf "{sched=%s param=%.1f crash=[%s] mid=[%s] twoface=[%s] ones=%d}"
    (match a.sched with
    | S_random -> "random"
    | S_fifo -> "fifo"
    | S_split -> "split"
    | S_targeted -> "targeted"
    | S_gst -> "gst")
    a.sched_param
    (String.concat ";" (List.map string_of_int a.crashes))
    (String.concat ";" (List.map (fun (p, d) -> Printf.sprintf "%d@%d" p d) a.midrun_crashes))
    (String.concat ";" (List.map string_of_int a.two_face))
    a.ones

let arb_adversary = QCheck.make ~print:print_adversary gen_adversary

let scheduler_of a : Ba.msg Sim.Scheduler.t =
  match a.sched with
  | S_random -> Sim.Scheduler.random ()
  | S_fifo -> Sim.Scheduler.fifo ()
  | S_split -> Sim.Scheduler.split ~group:(fun pid -> pid < n / 2) ~cross_delay:a.sched_param ()
  | S_targeted -> Sim.Scheduler.targeted ~victims:(fun pid -> pid mod 3 = 0) ~factor:a.sched_param ()
  | S_gst -> Sim.Scheduler.eventual_sync ~gst:a.sched_param ()

(* ------------- the fuzz property for Algorithm 4 ------------- *)

let run_fuzz_ba a seed =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let inputs = Array.init n (fun i -> if i < a.ones then 1 else 0) in
  let corruption =
    Runner.Custom
      (fun eng ->
        Sim.Faults.crash_all eng a.crashes;
        Attacks.install_two_face eng ~keyring:kr ~params:p
          ~instance:(Runner.ba_instance_name ~seed) ~pids:a.two_face;
        (* mid-run crashes: after the given number of deliveries *)
        List.iter
          (fun (pid, after) ->
            let seen = ref 0 in
            Sim.Engine.on_deliver eng (fun _ ->
                incr seen;
                if !seen = after && Sim.Engine.is_correct eng pid then
                  Sim.Engine.corrupt_crash eng pid))
          a.midrun_crashes)
  in
  let o =
    Runner.run_ba ~scheduler:(scheduler_of a) ~corruption ~keyring:kr ~params:p ~inputs ~seed ()
  in
  (o, inputs)

let fuzz_ba_safety =
  QCheck.Test.make ~name:"fuzz: BA safety under composite adversaries" ~count:25
    QCheck.(pair arb_adversary small_int)
    (fun (a, seed) ->
      QCheck.assume (total_corrupted a <= (Lazy.force params).Params.f);
      let o, inputs = run_fuzz_ba a (seed + 40_000) in
      (* Safety is unconditional.  Liveness: correct processes that decided
         must agree; validity on unanimous-correct inputs.  (A mid-run
         crash storm may legitimately stall a run; stalling is the whp
         caveat, not a safety violation — but with our margins it should
         be rare, so require at least most runs to complete too.) *)
      let unanimous_input =
        let correct_inputs =
          List.filteri (fun i _ -> not (List.mem i a.crashes)) (Array.to_list inputs)
        in
        match List.sort_uniq compare correct_inputs with [ v ] -> Some v | _ -> None
      in
      o.Runner.agreement
      && (match unanimous_input with
         | Some v -> List.for_all (fun (_, d) -> d = v) o.Runner.decisions
         | None -> true))

let fuzz_ba_mostly_live =
  QCheck.Test.make ~name:"fuzz: BA completes under composite adversaries" ~count:15
    QCheck.(pair arb_adversary small_int)
    (fun (a, seed) ->
      QCheck.assume (total_corrupted a <= (Lazy.force params).Params.f);
      let o, _ = run_fuzz_ba a (seed + 80_000) in
      o.Runner.all_decided)

(* ------------- the same idea for MMR (ideal coin) ------------- *)

let fuzz_mmr_safety =
  QCheck.Test.make ~name:"fuzz: MMR safety under random schedules and crashes" ~count:20
    QCheck.(triple (int_range 0 9) (int_range 0 n) small_int)
    (fun (n_crash, ones, seed) ->
      let rng = Crypto.Rng.create (seed * 131) in
      let crashes = Crypto.Rng.sample_without_replacement rng n_crash n in
      let inputs = Array.init n (fun i -> if i < ones then 1 else 0) in
      let o =
        Baselines.Brun.run_mmr ~coin:Baselines.Mmr.Ideal ~pre_crash:crashes ~n ~f:10 ~inputs
          ~seed:(seed + 60_000) ()
      in
      o.Baselines.Brun.agreement && o.Baselines.Brun.all_decided)

(* ------------- chain under fuzzing ------------- *)

let fuzz_chain_safety =
  QCheck.Test.make ~name:"fuzz: concurrent chain slots stay isolated" ~count:8
    QCheck.(pair (int_range 1 4) small_int)
    (fun (slots, seed) ->
      let kr = Lazy.force keyring in
      let p = Lazy.force params in
      let rng = Crypto.Rng.create (seed * 7) in
      let inputs =
        Array.init slots (fun _ -> Array.init n (fun _ -> Crypto.Rng.int rng 2))
      in
      let o = Chain.run_concurrent ~keyring:kr ~params:p ~inputs ~seed:(seed + 90_000) () in
      o.Chain.all_slots_decided
      && List.for_all
           (fun s ->
             s.Chain.agreement
             &&
             (* per-slot validity on unanimous slots *)
             match List.sort_uniq compare (Array.to_list inputs.(s.Chain.slot)) with
             | [ v ] -> List.for_all (fun (_, d) -> d = v) s.Chain.decisions
             | _ -> true)
           o.Chain.slots)

(* ------------- modular-arithmetic kernel differentials ------------- *)

(* The windowed Montgomery ladder, squaring through the multiply kernel,
   and CRT signing are performance rewrites with an exact-output contract:
   each must be byte-identical to its straightforward counterpart.  These
   properties fuzz that contract directly, so a kernel bug cannot hide
   behind a protocol-level property that only samples a few residues. *)

let gen_kernel_case =
  QCheck.Gen.(
    let* mb = 1 -- 24 in
    let* ms = string_size ~gen:char (return mb) in
    let* bb = 0 -- 24 in
    let* bs = string_size ~gen:char (return bb) in
    let* eb = 0 -- 20 in
    let* es = string_size ~gen:char (return eb) in
    let open Bignum in
    let m = Bigint.of_bytes_be ms in
    let m = if Bigint.is_even m then Bigint.succ m else m in
    let m = if Bigint.compare m (Bigint.of_int 3) < 0 then Bigint.of_int 3 else m in
    return (m, Bigint.of_bytes_be bs, Bigint.of_bytes_be es))

let print_kernel_case (m, b, e) =
  Printf.sprintf "{m=%s b=%s e=%s}" (Bignum.Bigint.to_hex m) (Bignum.Bigint.to_hex b)
    (Bignum.Bigint.to_hex e)

let arb_kernel_case = QCheck.make ~print:print_kernel_case gen_kernel_case

let fuzz_mont_window_vs_generic =
  QCheck.Test.make ~name:"fuzz: windowed Mont.pow = modpow_generic" ~count:120 arb_kernel_case
    (fun (m, b, e) ->
      let open Bignum in
      let ctx = Bigint.Mont.create m in
      Bigint.equal (Bigint.Mont.pow ctx b e) (Bigint.modpow_generic b e m))

let fuzz_mont_window_vs_binary =
  QCheck.Test.make ~name:"fuzz: windowed Mont.pow = binary ladder" ~count:120 arb_kernel_case
    (fun (m, b, e) ->
      let open Bignum in
      let ctx = Bigint.Mont.create m in
      Bigint.equal (Bigint.Mont.pow ctx b e) (Bigint.Mont.pow_binary ctx b e))

(* Squaring has no kernel of its own: the ladders call the multiply
   kernel with both operands the same residue.  Check that pattern against
   plain bigint arithmetic. *)
let fuzz_mont_mul_square =
  QCheck.Test.make ~name:"fuzz: Mont.mul x x = b*b mod m" ~count:200 arb_kernel_case
    (fun (m, b, _) ->
      let open Bignum in
      let ctx = Bigint.Mont.create m in
      let x = Bigint.Mont.to_mont ctx b in
      Bigint.equal
        (Bigint.Mont.of_mont ctx (Bigint.Mont.mul ctx x x))
        (Bigint.erem (Bigint.mul b b) m))

let fuzz_mont_pow2 =
  QCheck.Test.make ~name:"fuzz: Mont.pow2 b1 e1 b2 e2 = pow b1 e1 * pow b2 e2" ~count:120
    QCheck.(pair arb_kernel_case arb_kernel_case)
    (fun ((m, b1, e1), (_, b2, e2)) ->
      let open Bignum in
      let ctx = Bigint.Mont.create m in
      let got =
        Bigint.Mont.(of_mont ctx (pow2 ctx (to_mont ctx b1) e1 (to_mont ctx b2) e2))
      in
      Bigint.equal got
        (Bigint.erem (Bigint.mul (Bigint.Mont.pow ctx b1 e1) (Bigint.Mont.pow ctx b2 e2)) m))

(* A comb built for [bits]-bit scalars below some q must agree with the
   ladder on the exponents at the edges of its capacity: 0, 1, q-1 and
   2^capacity-1 (every column index 15), plus one random exponent. *)
let gen_comb_case =
  QCheck.Gen.(
    let* m, b1, _ = gen_kernel_case in
    let* _, b2, _ = gen_kernel_case in
    let* qbits = 1 -- 200 in
    let* qs = string_size ~gen:char (return ((qbits + 7) / 8)) in
    let* es = string_size ~gen:char (return ((qbits + 10) / 8)) in
    let open Bignum in
    let top = Bigint.shift_left Bigint.one (qbits - 1) in
    let q = Bigint.add top (Bigint.erem (Bigint.of_bytes_be qs) top) in
    return (m, b1, b2, q, Bigint.of_bytes_be es))

let print_comb_case (m, b1, b2, q, e) =
  Printf.sprintf "{m=%s b1=%s b2=%s q=%s e=%s}" (Bignum.Bigint.to_hex m) (Bignum.Bigint.to_hex b1)
    (Bignum.Bigint.to_hex b2) (Bignum.Bigint.to_hex q) (Bignum.Bigint.to_hex e)

let fuzz_comb_vs_pow =
  QCheck.Test.make ~name:"fuzz: one- and two-base comb = pow" ~count:60
    (QCheck.make ~print:print_comb_case gen_comb_case)
    (fun (m, b1, b2, q, e) ->
      let open Bignum in
      let ctx = Bigint.Mont.create m in
      let bits = Bigint.bit_length q in
      let c1 = Bigint.Mont.comb ctx (Bigint.Mont.to_mont ctx b1) ~bits in
      let c2 = Bigint.Mont.comb ctx (Bigint.Mont.to_mont ctx b2) ~bits in
      let cap = Bigint.Mont.comb_capacity c1 in
      let full = Bigint.pred (Bigint.shift_left Bigint.one cap) in
      let es = [ Bigint.zero; Bigint.one; Bigint.pred q; full; Bigint.erem e (Bigint.succ full) ] in
      cap >= bits
      && cap < bits + 4
      && List.for_all
           (fun e1 ->
             Bigint.equal
               (Bigint.Mont.of_mont ctx (Bigint.Mont.comb_pow ctx c1 e1))
               (Bigint.Mont.pow ctx b1 e1)
             && List.for_all
                  (fun e2 ->
                    Bigint.equal
                      (Bigint.Mont.of_mont ctx (Bigint.Mont.comb_pow2 ctx c1 e1 c2 e2))
                      (Bigint.erem
                         (Bigint.mul (Bigint.Mont.pow ctx b1 e1) (Bigint.Mont.pow ctx b2 e2))
                         m))
                  es)
           es)

(* ------------- Euler's criterion: Jacobi symbol vs exponentiation ------------- *)

(* For prime p, jacobi x p = 1 exactly when x^((p-1)/2) = 1; with
   p = 2q + 1 that exponent is q, which is the subgroup-membership test
   Group.is_element replaced.  Checked on safe primes (the DLEQ groups'
   shape) and on plain primes, for random x and for 1, p-1 and small
   values, among which p-1 is always a non-residue when p = 3 (mod 4). *)
let safe_primes =
  lazy
    (List.map
       (fun (qbits, seed) -> Vrf.Group.p (Vrf.Group.generate ~qbits ~seed ()))
       [ (32, "jacobi-32"); (64, "jacobi-64"); (96, "jacobi-96") ])

let fuzz_jacobi_euler =
  QCheck.Test.make ~name:"fuzz: jacobi x p = 1 iff x^((p-1)/2) = 1" ~count:40
    QCheck.(triple (int_range 8 200) small_int (string_of_size (Gen.return 32)))
    (fun (bits, seed, xs) ->
      let open Bignum in
      let d = Crypto.Drbg.create (Printf.sprintf "jacobi-%d-%d" bits seed) in
      let plain = Prime.gen_prime ~bits ~random:(Crypto.Drbg.generate d) in
      List.for_all
        (fun p ->
          let h = Bigint.shift_right p 1 in
          let x = Bigint.erem (Bigint.of_bytes_be xs) p in
          let xs =
            [ x; Bigint.one; Bigint.pred p ]
            @ List.map Bigint.of_int [ 2; 3; 5; 6; 7; 10; 11; 13 ]
          in
          List.for_all
            (fun x ->
              Bigint.is_zero (Bigint.erem x p)
              || Bool.equal
                   (Int.equal (Bigint.jacobi x p) 1)
                   (Bigint.equal (Bigint.Mont.pow (Bigint.Mont.create p) x h) Bigint.one))
            xs)
        (plain :: Lazy.force safe_primes))

(* ------------- long division (Knuth's Algorithm D) ------------- *)

(* A value of exactly [limbs] 26-bit limbs.  The top limb is 1 (the
   largest normalisation shift, 25), 2^26-1 (none) or random. *)
let gen_limbs limbs =
  QCheck.Gen.(
    let* top = oneof [ return 1; return ((1 lsl 26) - 1); 1 -- ((1 lsl 26) - 1) ] in
    let* low = string_size ~gen:char (return (((limbs - 1) * 26 / 8) + 1)) in
    let open Bignum in
    let shift = 26 * (limbs - 1) in
    let low = Bigint.shift_right (Bigint.of_bytes_be low) ((8 * String.length low) - shift) in
    return (Bigint.add (Bigint.shift_left (Bigint.of_int top) shift) low))

let gen_division =
  QCheck.Gen.(
    let* la = 1 -- 40 in
    let* lb = 1 -- 40 in
    let* a = gen_limbs la in
    let* b = gen_limbs lb in
    let* sa = bool in
    let* sb = bool in
    let open Bignum in
    return ((if sa then Bigint.neg a else a), if sb then Bigint.neg b else b))

let division_law a b =
  let open Bignum in
  let q, r = Bigint.divmod a b in
  let e = Bigint.erem a b in
  Bigint.equal a (Bigint.add (Bigint.mul q b) r)
  && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0
  && (Bigint.is_zero r || Int.equal (Bigint.sign r) (Bigint.sign a))
  && Bigint.sign e >= 0
  && Bigint.compare e (Bigint.abs b) < 0
  && Bigint.is_zero (Bigint.rem (Bigint.sub a e) b)

let fuzz_division =
  QCheck.Test.make ~name:"fuzz: a = q*b + r, |r| < |b|, 1-40 limb operands" ~count:300
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "{a=%s b=%s}" (Bignum.Bigint.to_hex a) (Bignum.Bigint.to_hex b))
       gen_division)
    (fun (a, b) -> division_law a b)

let test_division_edges () =
  let open Bignum in
  let pow2 k = Bigint.shift_left Bigint.one k in
  let check name a b = Alcotest.(check bool) name true (division_law a b) in
  let big = Bigint.pred (pow2 (26 * 9)) in
  check "single-limb divisor" big (Bigint.of_int 12345);
  check "single-limb divisor 2^26-1" big (Bigint.of_int ((1 lsl 26) - 1));
  check "top limb 1 (shift 25)" big (Bigint.succ (pow2 (26 * 3)));
  check "top limb 1, negative" (Bigint.neg big) (Bigint.add (pow2 52) (Bigint.of_int 7));
  check "divisor = dividend" big big;
  check "divisor > dividend" big (Bigint.succ big);
  (* 2^103 / (2^77 + 1): the divisor's top limb is 2^25, so no shift, and
     the first two-limb estimate qhat = 1 passes the v[n-2] test but
     overshoots by one; step D6 adds the divisor back. *)
  let a = pow2 103 and b = Bigint.succ (pow2 77) in
  let q, r = Bigint.divmod a b in
  let beq = Alcotest.testable (Fmt.of_to_string Bigint.to_hex) Bigint.equal in
  Alcotest.check beq "add-back quotient" (Bigint.of_int ((1 lsl 26) - 1)) q;
  Alcotest.check beq "add-back remainder" (Bigint.succ (Bigint.sub (pow2 77) (pow2 26))) r

let fuzz_crt_sign_vs_plain =
  (* Small keys keep keygen cheap; CRT vs plain must agree byte for byte
     on every (key, message) pair because RSA is a permutation. *)
  QCheck.Test.make ~name:"fuzz: CRT Rsa.sign = Rsa.sign_plain" ~count:8
    QCheck.(pair small_int small_string)
    (fun (kseed, msg) ->
      let d = Crypto.Drbg.create (Printf.sprintf "crt-fuzz-%d" kseed) in
      let sk = Rsa.keygen ~bits:128 ~random:(Crypto.Drbg.generate d) in
      let pk = Rsa.public_of_secret sk in
      let s_crt = Rsa.sign sk msg and s_plain = Rsa.sign_plain sk msg in
      String.equal s_crt s_plain && Rsa.verify pk msg s_crt)

let suite =
  [
    QCheck_alcotest.to_alcotest fuzz_ba_safety;
    QCheck_alcotest.to_alcotest fuzz_ba_mostly_live;
    QCheck_alcotest.to_alcotest fuzz_mmr_safety;
    QCheck_alcotest.to_alcotest fuzz_chain_safety;
    QCheck_alcotest.to_alcotest fuzz_mont_window_vs_generic;
    QCheck_alcotest.to_alcotest fuzz_mont_window_vs_binary;
    QCheck_alcotest.to_alcotest fuzz_mont_mul_square;
    QCheck_alcotest.to_alcotest fuzz_crt_sign_vs_plain;
    QCheck_alcotest.to_alcotest fuzz_mont_pow2;
    QCheck_alcotest.to_alcotest fuzz_comb_vs_pow;
    QCheck_alcotest.to_alcotest fuzz_jacobi_euler;
    QCheck_alcotest.to_alcotest fuzz_division;
    Alcotest.test_case "division edge cases" `Quick test_division_edges;
  ]
