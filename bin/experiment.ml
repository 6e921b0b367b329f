(* The paper's evaluation, one command per artefact: `coincidence
   experiment ID` prints Table 1 (t1) or one of the experiments E2-E9
   that DESIGN.md section 3 indexes and EXPERIMENTS.md discusses.  Sizes,
   keyrings ("bench-<n>", Mock) and run seeds are fixed, so each table's
   stdout is committed as test/golden/exp-<id>.txt and diffed by `dune
   runtest`.  Campaigns run at ~jobs:1; their output does not depend on
   the worker count. *)

let section title =
  Format.printf "=== %s %s@." title (String.make (max 0 (72 - String.length title)) '=')

let keyring n = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:(Printf.sprintf "bench-%d" n) ()

let practical_params n =
  Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04
    ~lambda:(Core.Params.practical_lambda ~n) ~n ()

let mixed_inputs n i = Array.init n (fun p -> (p + i) mod 2)

(* -------------------------- T1: Table 1 --------------------------- *)

let t1 () =
  section "T1: Table 1 -- asynchronous BA protocols (measured at small scale)";
  let trials = 5 in
  Format.printf
    "paper columns: resilience / word complexity; measured: mixed inputs, f@.\
     crashed processes, random asynchrony, %d seeded runs each.@.@."
    trials;
  Format.printf "%-22s %6s %6s %4s %12s %7s %5s %5s@." "protocol" "n>" "n" "f" "words" "rounds"
    "term" "safe";
  let row name resilience n f run =
    let words = ref [] and rounds = ref [] and safe = ref true and live = ref true in
    for i = 1 to trials do
      let w, r, ok_safe, ok_live = run (mixed_inputs n i) i in
      words := float_of_int w :: !words;
      rounds := float_of_int r :: !rounds;
      safe := !safe && ok_safe;
      live := !live && ok_live
    done;
    Format.printf "%-22s %6s %6d %4d %12.0f %7.1f %5b %5b@." name resilience n f
      (Core.Stats.mean !words) (Core.Stats.mean !rounds) !live !safe
  in
  let crash n f i = Crypto.Rng.sample_without_replacement (Crypto.Rng.create (i * 997)) f n in
  let brun (o : Baselines.Brun.outcome) = (o.words, o.rounds, o.agreement, o.all_decided) in
  let kr30 = keyring 30 and kr32 = keyring 32 in
  row "Ben-Or 83 (local)" "5f" 30 5 (fun inputs i ->
      brun
        (Baselines.Brun.run_benor ~n:30 ~f:5 ~pre_crash:(crash 30 5 i) ~inputs ~seed:(100 + i) ()));
  row "Rabin 83 (dealer)" "10f" 33 3 (fun inputs i ->
      brun
        (Baselines.Brun.run_rabin ~n:33 ~f:3 ~pre_crash:(crash 33 3 i) ~inputs ~seed:(200 + i) ()));
  row "Bracha 87 (RBC)" "3f" 30 9 (fun inputs i ->
      brun
        (Baselines.Brun.run_bracha ~n:30 ~f:9 ~pre_crash:(crash 30 9 i) ~inputs ~seed:(300 + i) ()));
  row "MMR 15 + Alg.1 coin" "3f" 30 9 (fun inputs i ->
      brun
        (Baselines.Brun.run_mmr ~coin:(Baselines.Mmr.Vrf_coin kr30) ~n:30 ~f:9
           ~pre_crash:(crash 30 9 i) ~inputs ~seed:(400 + i) ()));
  row "Ours (Alg.4, whp)" "~4.5f" 32 2 (fun inputs i ->
      let p = practical_params 32 in
      let o =
        Core.Runner.run_ba
          ~corruption:(Core.Runner.Crash_random p.Core.Params.f)
          ~keyring:kr32 ~params:p ~inputs ~seed:(500 + i) ()
      in
      (o.words, o.rounds, o.agreement, o.all_decided));
  (* Cachin et al.'s protocol proper needs threshold signatures; the
     dealer threshold coin plugged into MMR matches its row's resilience,
     word complexity and constant expected rounds. *)
  row "Cachin-style (thresh)" "3f" 30 9 (fun inputs i ->
      let dc = Baselines.Dealer_coin.make ~n:30 ~threshold:10 ~seed:(Printf.sprintf "t1-%d" i) in
      brun
        (Baselines.Brun.run_mmr ~coin:(Baselines.Mmr.Threshold dc) ~n:30 ~f:9
           ~pre_crash:(crash 30 9 i) ~inputs ~seed:(450 + i) ()));
  Format.printf "%-22s %6s   (paper-only row: n > 400f is infeasible at bench scale)@."
    "King-Saia 13" "400f"

(* ------------------ E2: word-complexity scaling ------------------- *)

let e2 () =
  section "E2: word complexity scaling -- ours vs quadratic MMR";
  Format.printf
    "ours at the paper's lambda = 8 ln n (completion rate exposes the finite-n@.\
     whp caveat; words averaged over completed runs) and at a practical lambda@.\
     with concentration margins; MMR instantiated with the Algorithm 1 coin.@.@.";
  Format.printf "%6s | %10s %9s %5s | %10s %5s | %10s@." "n" "ours-8ln" "complete" "lam"
    "ours-prac" "lam" "mmr";
  let ours_paper = ref [] and ours_prac = ref [] and mmr = ref [] in
  List.iter
    (fun n ->
      let kr = keyring n in
      let lam_paper = min n (Core.Params.default_lambda ~n) in
      let p_paper =
        Core.Params.make_exn ~strict:false ~epsilon:0.3 ~d:0.037 ~lambda:lam_paper ~n ()
      in
      let attempts = 12 in
      let completed = ref [] in
      for i = 1 to attempts do
        let o =
          Core.Runner.run_ba ~keyring:kr ~params:p_paper ~inputs:(mixed_inputs n i)
            ~seed:(n + i) ()
        in
        if o.Core.Runner.all_decided then
          completed := float_of_int o.Core.Runner.words :: !completed
      done;
      let paper_words = match !completed with [] -> nan | ws -> Core.Stats.mean ws in
      let completion = float_of_int (List.length !completed) /. float_of_int attempts in
      let p_prac = practical_params n in
      let prac_words =
        Core.Stats.mean
          (List.init 3 (fun i ->
               let o =
                 Core.Runner.run_ba ~keyring:kr ~params:p_prac ~inputs:(mixed_inputs n i)
                   ~seed:((2 * n) + i) ()
               in
               float_of_int o.Core.Runner.words))
      in
      let mmr_words =
        let o =
          Baselines.Brun.run_mmr
            ~coin:(Baselines.Mmr.Vrf_coin kr)
            ~n ~f:(n / 4) ~inputs:(mixed_inputs n 1) ~seed:(3 * n) ()
        in
        float_of_int o.Baselines.Brun.words
      in
      if not (Float.is_nan paper_words) then
        ours_paper := (float_of_int n, paper_words) :: !ours_paper;
      ours_prac := (float_of_int n, prac_words) :: !ours_prac;
      mmr := (float_of_int n, mmr_words) :: !mmr;
      Format.printf "%6d | %10.3e %8.0f%% %5d | %10.3e %5d | %10.3e@." n paper_words
        (100.0 *. completion) p_paper.Core.Params.lambda prac_words p_prac.Core.Params.lambda
        mmr_words)
    [ 64; 128; 256 ];
  let slope pts = try Core.Stats.loglog_slope pts with Invalid_argument _ -> nan in
  Format.printf "@.log-log slopes: ours(8ln n) %.2f  ours(practical) %.2f  mmr %.2f@."
    (slope !ours_paper) (slope !ours_prac) (slope !mmr);
  Format.printf
    "paper expectation: ours ~ n log^2 n (slope ~1.2-1.5 at these n); mmr ~ n^2@.\
     (slope ~2).  Crossover from the fitted curves:@.";
  (match (!ours_paper, !mmr) with
  | (_ :: _ :: _), (_ :: _ :: _) -> begin
      let fit pts = Core.Stats.linear_fit (List.map (fun (x, y) -> (log x, log y)) pts) in
      let a1, b1 = fit !ours_paper in
      let a2, b2 = fit !mmr in
      if Float.abs (a1 -. a2) > 1e-6 then
        Format.printf "  measured fit: ours@8ln-n overtakes mmr at n ~ %.0f@."
          (exp ((b1 -. b2) /. (a2 -. a1)))
    end
  | _ -> Format.printf "  (not enough completed points to fit a crossover)@.");
  (* Independent estimate from the analytic cost model (validated against
     measurements in test/t_model.ml). *)
  let model_ours n =
    match
      Core.Params.make ~strict:false ~epsilon:0.3 ~d:0.037
        ~lambda:(min n (Core.Params.default_lambda ~n))
        ~n ()
    with
    | Ok p -> Core.Model.ba_words ~params:p ~rounds:2.0
    | Error _ -> infinity
  in
  let model_mmr n = Core.Model.mmr_words ~n ~rounds:2.0 in
  match Core.Model.crossover ~ours:model_ours ~baseline:model_mmr () with
  | Some x -> Format.printf "  analytic model: crossover at n ~ %d@." x
  | None -> Format.printf "  analytic model: no crossover in range@."

(* ------ E3: shared-coin success rate vs epsilon (Lemma 4.8) ------- *)

let e3 () =
  section "E3: Algorithm 1 success rate vs epsilon (Lemma 4.8)";
  let n = 48 in
  let trials = 150 in
  let kr = keyring n in
  Format.printf
    "n = %d, %d flips per point; empirical rho = min(P[all 0], P[all 1]); worst@.\
     of {random, targeted} content-oblivious schedulers, f crashed processes.@.@."
    n trials;
  Format.printf "%8s %4s | %8s | %8s %18s %6s@." "epsilon" "f" "bound" "rho" "CI(min side)" "ok?";
  List.iteri
    (fun idx epsilon ->
      let f = int_of_float (float_of_int n *. ((1.0 /. 3.0) -. epsilon)) in
      let bound = Core.Params.coin_success_bound ~epsilon in
      let run scheduler base_seed =
        Core.Analysis.estimate_shared_coin ?scheduler ~jobs:1 ~keyring:kr ~n ~f ~crash:f ~trials
          ~base_seed ()
      in
      (* distinct seeds per row, or the same VRF draws repeat down the table *)
      let random = run None (1000 + (idx * 131071)) in
      let targeted =
        run
          (Some (Sim.Scheduler.targeted ~victims:(fun pid -> pid < n / 4) ~factor:30.0 ()))
          (5000 + (idx * 131071))
      in
      let worst =
        if random.Core.Analysis.success_rate < targeted.Core.Analysis.success_rate then random
        else targeted
      in
      let side = min worst.Core.Analysis.all_zero worst.Core.Analysis.all_one in
      let lo, hi = Core.Stats.binomial_ci95 ~successes:side ~trials in
      (* min(p0, p1) is a downward-biased estimator of rho (it subtracts the
         binomial fluctuation), so the verdict compares the CI's upper end. *)
      Format.printf "%8.3f %4d | %8.3f | %8.3f    [%.3f, %.3f] %6b@." epsilon f bound
        worst.Core.Analysis.success_rate lo hi (hi >= bound))
    [ 0.15; 0.20; 0.25; 0.30; 1.0 /. 3.0 ];
  Format.printf
    "@.expected shape: empirical rho consistent with (and well above) the Lemma 4.8@.\
     bound at small epsilon, approaching the fair-coin 1/2 as epsilon -> 1/3@.\
     (Remark 4.10: f = 0 gives a perfectly fair coin).@."

(* ------- E4: WHP coin (Lemma B.7) and the lambda trade-off -------- *)

let e4 () =
  section "E4: Algorithm 2 (WHP coin) success rate and lambda trade-off (Lemma B.7)";
  let n = 128 in
  let trials = 120 in
  let kr = keyring n in
  Format.printf "n = %d, %d flips per row; f random processes crashed per flip.@.@." n trials;
  Format.printf "%8s %6s %4s %4s | %8s | %8s %9s %10s@." "lambda" "d" "W" "B" "bound" "rho"
    "shortfall" "words";
  List.iter
    (fun (lambda, d) ->
      let params = Core.Params.make_exn ~strict:false ~epsilon:0.28 ~d ~lambda ~n () in
      let est =
        Core.Analysis.estimate_whp_coin ~jobs:1 ~keyring:kr ~params ~crash:params.Core.Params.f
          ~trials ~base_seed:4000 ()
      in
      let bound = Core.Params.whp_coin_success_bound ~d in
      Format.printf "%8d %6.3f %4d %4d | %8.3f | %8.3f %8.0f%% %10.0f@." lambda d
        params.Core.Params.w params.Core.Params.b bound est.Core.Analysis.success_rate
        (100.0 *. float_of_int est.Core.Analysis.disagree /. float_of_int trials)
        est.Core.Analysis.mean_words)
    [
      (min n (Core.Params.default_lambda ~n), 0.037);
      (min n (Core.Params.default_lambda ~n), 0.06);
      (n / 2, 0.037);
      (n / 2, 0.06);
      (7 * n / 8, 0.037);
    ];
  Format.printf
    "@.expected shape: rho above the bound whenever committees concentrate; at@.\
     lambda = 8 ln n the shortfall column (runs without unanimity, including@.\
     liveness failures from committees with < W correct members) exposes the@.\
     finite-n whp caveat.@."

(* ---------- E5: committee-sampling properties (Claim 1) ----------- *)

(* Claim 1's Chernoff lower bounds on P[S_i], from Appendix A. *)
let claim1_bounds ~epsilon ~d ~lambda =
  let fl = float_of_int lambda in
  let third = 1.0 /. 3.0 in
  let b1 = 1.0 -. exp (-.(d *. d) *. fl /. (2.0 +. d)) in
  let b2 = 1.0 -. exp (-.(d *. d) *. fl /. 2.0) in
  let d' = (3.0 *. d) +. (1.0 /. fl) in
  let two_thirds = 2.0 /. 3.0 in
  let delta3 = 1.0 -. ((two_thirds +. d') /. (two_thirds +. epsilon)) in
  let b3 = 1.0 -. exp (-.(delta3 ** 2.0) *. (two_thirds +. epsilon) *. fl /. 2.0) in
  let r = (epsilon -. d) /. (third -. epsilon) in
  let b4 = 1.0 -. exp (-.(r *. (epsilon -. d)) *. fl /. (2.0 +. r)) in
  (b1, b2, b3, b4)

let e5 () =
  section "E5: Claim 1 -- S1-S4 frequencies vs their Chernoff bounds";
  let trials = 600 in
  Format.printf
    "%d committees per (n, lambda); f random corruptions; eps = 0.28, d = 0.05.@.\
     each S_i column shows measured frequency / Appendix-A lower bound.@.@."
    trials;
  Format.printf "%6s %6s | %13s %13s %13s %13s | %5s@." "n" "lambda" "S1" "S2" "S3" "S4" "ok?";
  List.iter
    (fun n ->
      let kr = keyring n in
      List.iter
        (fun mult ->
          let lambda = min n (mult * Core.Params.default_lambda ~n / 8) in
          let params = Core.Params.make_exn ~strict:false ~epsilon:0.28 ~d:0.05 ~lambda ~n () in
          let est =
            Core.Analysis.estimate_committees ~jobs:1 ~keyring:kr ~params ~trials ~base_seed:n ()
          in
          let b1, b2, b3, b4 =
            claim1_bounds ~epsilon:params.Core.Params.epsilon ~d:params.Core.Params.d ~lambda
          in
          let slack = 2.0 /. sqrt (float_of_int trials) in
          let ok =
            est.Core.Analysis.s1 +. slack >= b1
            && est.Core.Analysis.s2 +. slack >= b2
            && est.Core.Analysis.s3 +. slack >= b3
            && est.Core.Analysis.s4 +. slack >= b4
          in
          Format.printf "%6d %6d | %5.3f / %5.3f %5.3f / %5.3f %5.3f / %5.3f %5.3f / %5.3f | %5b@."
            n lambda est.Core.Analysis.s1 b1 est.Core.Analysis.s2 b2 est.Core.Analysis.s3 b3
            est.Core.Analysis.s4 b4 ok)
        [ 8; 24 ])
    [ 64; 256; 1024 ];
  Format.printf
    "@.expected shape: every measured frequency is above its theoretical bound.@.\
     The bounds themselves are weak: their exponents c_i * lambda sit well below 1@.\
     at lambda = 8 ln n and realistic d, so 'whp' kicks in only at astronomical n@.\
     -- concentration in practice comes from raising the lambda constant (the@.\
     24-ln-n rows), which Claim 1 allows.  See EXPERIMENTS.md.@."

(* ------------------- E6: expected constant time ------------------- *)

let e6 () =
  section "E6: rounds to decision and causal depth vs n (expected O(1) time)";
  let trials = 10 in
  Format.printf
    "%d mixed-input runs per n at the practical lambda; random scheduler and a@.\
     split scheduler (cross-cluster delay 20x the mean latency).@.@."
    trials;
  Format.printf "%6s | %16s %16s | %16s %16s@." "n" "rounds(rand)" "depth(rand)" "rounds(split)"
    "depth(split)";
  List.iter
    (fun n ->
      let params = practical_params n in
      let kr = keyring n in
      let run scheduler base_seed =
        Core.Analysis.estimate_ba ?scheduler ~jobs:1 ~keyring:kr ~params ~trials ~base_seed ()
      in
      let rand = run None 9000 in
      let split =
        run (Some (Sim.Scheduler.split ~group:(fun pid -> pid < n / 2) ~cross_delay:20.0 ())) 9500
      in
      let pr (e : Core.Analysis.ba_estimate) =
        ( Printf.sprintf "%.1f (p95 %.0f)" e.Core.Analysis.rounds.Core.Stats.mean
            e.Core.Analysis.rounds.Core.Stats.p95,
          Printf.sprintf "%.0f (p95 %.0f)" e.Core.Analysis.depth.Core.Stats.mean
            e.Core.Analysis.depth.Core.Stats.p95 )
      in
      let r1, d1 = pr rand in
      let r2, d2 = pr split in
      Format.printf "%6d | %16s %16s | %16s %16s@." n r1 d1 r2 d2)
    [ 32; 64; 128 ];
  Format.printf
    "@.expected shape: rounds flat (~1-3) in n under both schedulers; causal depth@.\
     tracks rounds, not n -- the paper's O(1) expected time.@."

(* ---------------- E7: delayed-adaptivity ablation ----------------- *)

let e7 () =
  section "E7: why delayed adaptivity matters (ablation, section 2)";
  let n = 48 in
  let f = 7 in
  let trials = 80 in
  let kr = keyring n in
  Format.printf
    "Algorithm 1 coin, n = %d, f = %d, %d flips per adversary.  The cheating@.\
     adversary corrupts holders of the smallest LSB-0 VRF draws before they@.\
     send -- corruption conditioned on message content, which Definition 2.1@.\
     forbids.@.@."
    n f trials;
  let report name ~cheat =
    let ones = ref 0 and unanimous = ref 0 in
    for seed = 1 to trials do
      let pre_corrupt =
        if cheat then Core.Attacks.coin_cheaters ~keyring:kr ~f ~seed ~round:seed else []
      in
      let o = Core.Runner.run_shared_coin ~pre_corrupt ~keyring:kr ~n ~f ~round:seed ~seed () in
      match o.Core.Runner.unanimous with
      | Some b ->
          incr unanimous;
          if b = 1 then incr ones
      | None -> ()
    done;
    Format.printf "%-34s P[coin = 1 | unanimous] = %3d/%3d = %.2f@." name !ones !unanimous
      (float_of_int !ones /. float_of_int (max 1 !unanimous))
  in
  report "compliant (content-oblivious)" ~cheat:false;
  report "cheating (content-adaptive)" ~cheat:true;
  Format.printf
    "@.expected shape: ~0.5 for the compliant adversary; ~1 - 2^-(f+1) = %.2f for@.\
     the cheating one -- without the delayed-adaptive restriction the coin has no@.\
     two-sided success rate and Algorithm 4's termination argument collapses.@."
    (1.0 -. (0.5 ** float_of_int (f + 1)))

(* --------------------- E8: eventual synchrony --------------------- *)

let e8 () =
  section "E8: behaviour under eventual synchrony (extension experiment)";
  let n = 48 in
  let trials = 5 in
  let params = practical_params n in
  let kr = keyring n in
  Format.printf
    "n = %d, %d mixed-input runs per GST.  Latencies are chaotic (mean 20)@.\
     before GST and bounded by 1 after; decision virtual time should track@.\
     GST + O(1) once GST dominates the chaotic mixing time, with safety@.\
     intact throughout (asynchronous protocols don't need the bound).@.@."
    n trials;
  Format.printf "%8s | %10s %10s %8s %8s@." "GST" "vtime" "rounds" "safe" "decided";
  List.iter
    (fun gst ->
      let vtimes = ref [] and rounds = ref [] and safe = ref true and live = ref true in
      for i = 1 to trials do
        let o =
          Core.Runner.run_ba
            ~scheduler:(Sim.Scheduler.eventual_sync ~gst ())
            ~keyring:kr ~params ~inputs:(mixed_inputs n i)
            ~seed:(7000 + (int_of_float gst * 100) + i) ()
        in
        vtimes := o.Core.Runner.vtime :: !vtimes;
        rounds := float_of_int o.Core.Runner.rounds :: !rounds;
        safe := !safe && o.Core.Runner.agreement;
        live := !live && o.Core.Runner.all_decided
      done;
      Format.printf "%8.0f | %10.1f %10.1f %8b %8b@." gst (Core.Stats.mean !vtimes)
        (Core.Stats.mean !rounds) !safe !live)
    [ 0.0; 25.0; 100.0; 400.0 ];
  Format.printf
    "@.expected shape: vtime ~ GST + O(1) for GST below the chaotic completion@.\
     time (~causal depth x chaos mean): the in-flight chaotic messages resolve@.\
     right after stabilisation and the protocol finishes immediately — no@.\
     timeout machinery to re-arm, because an asynchronous protocol never waits@.\
     on timers.  Safety holds at every GST, including during full chaos.@."

(* ----------- E9: repeated agreement (chain) throughput ------------ *)

let e9 () =
  section "E9: concurrent repeated agreement over one PKI (extension experiment)";
  let n = 32 in
  let params = Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n () in
  let kr = keyring n in
  Format.printf
    "n = %d; k slots decided concurrently on one network, messages interleaved.@.\
     Instance isolation means cost ~ k x one instance and depth stays flat.@.@."
    n;
  Format.printf "%6s | %12s %14s %8s %8s@." "slots" "words" "words/slot" "depth" "safe";
  List.iter
    (fun k ->
      let rng = Crypto.Rng.create (1000 + k) in
      let inputs = Array.init k (fun _ -> Array.init n (fun _ -> Crypto.Rng.int rng 2)) in
      let o = Core.Chain.run_concurrent ~keyring:kr ~params ~inputs ~seed:(8000 + k) () in
      let safe = List.for_all (fun s -> s.Core.Chain.agreement) o.Core.Chain.slots in
      Format.printf "%6d | %12d %14.0f %8d %8b@." k o.Core.Chain.total_words
        (float_of_int o.Core.Chain.total_words /. float_of_int k)
        o.Core.Chain.depth
        (safe && o.Core.Chain.all_slots_decided))
    [ 1; 2; 4; 8 ];
  Format.printf
    "@.expected shape: words/slot roughly constant in k (no interference),@.\
     causal depth flat (slots progress in parallel) -- the paper's 'setup@.\
     once, any number of BA instances' in action.@."

let all =
  [ ("t1", t1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7);
    ("e8", e8); ("e9", e9) ]
