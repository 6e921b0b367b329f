(* Benchmark & experiment harness.

   Usage:
     dune exec bench/main.exe                 -- everything, default sizes
     dune exec bench/main.exe -- --table e2   -- one table
     dune exec bench/main.exe -- --full       -- larger sweeps (slow)
     dune exec bench/main.exe -- --no-micro   -- skip the bechamel section
     dune exec bench/main.exe -- --json F     -- also write rows to F
                                                 (coincidence.bench/1)
     dune exec bench/main.exe -- --jobs 4     -- fan estimator campaigns over
                                                 an Exec domain pool (0 = the
                                                 recommended domain count);
                                                 output is jobs-invariant

   One section per paper artefact (see DESIGN.md section 3 and
   EXPERIMENTS.md for the paper-vs-measured discussion):
     T1  Table 1     protocol comparison
     E2  scaling     word complexity of ours vs the quadratic baseline
     E3  Lemma 4.8   shared-coin success rate vs epsilon
     E4  Lemma B.7   WHP-coin success rate and the lambda trade-off
     E5  Claim 1     committee properties S1-S4 vs n
     E6  Thm 6.7     rounds / causal depth vs n (expected O(1) time)
     E7  Def 2.1     delayed-adaptivity ablation
     E8  extension   eventual synchrony (GST sweep)
     E9  extension   concurrent repeated agreement (chain throughput)
     SC  scaling     estimator trials/sec vs --jobs (Exec domain pool)
     SIM sim         simulator messages/sec, ledger attached vs not
     B1  micro       primitive costs (bechamel)

   Regression gate:
     dune exec bench/main.exe -- --compare OLD.json NEW.json [--threshold T]
   diffs the b1 microbenchmark rows of two --json documents and exits 1
   when any grew by more than the relative threshold (default 0.25).     *)

let full = ref false
let which_table = ref "all"
let run_micro = ref true
let json_path : string option ref = ref None
let jobs = ref 1
let compare_files : (string * string) option ref = ref None
let threshold = ref 0.25

let () =
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
        full := true;
        parse rest
    | "--no-micro" :: rest ->
        run_micro := false;
        parse rest
    | "--table" :: t :: rest ->
        which_table := String.lowercase_ascii t;
        run_micro := t = "b1" || t = "micro";
        parse rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--jobs" :: j :: rest ->
        (match int_of_string_opt j with
        | Some j when j >= 0 -> jobs := j
        | Some _ | None ->
            Format.eprintf "--jobs expects a non-negative integer, got %S@." j;
            exit 2);
        parse rest
    | "--compare" :: old_path :: new_path :: rest ->
        compare_files := Some (old_path, new_path);
        parse rest
    | "--threshold" :: t :: rest ->
        (match float_of_string_opt t with
        | Some t when Float.is_finite t && t >= 0.0 -> threshold := t
        | Some _ | None ->
            Format.eprintf "--threshold expects a non-negative float, got %S@." t;
            exit 2);
        parse rest
    | arg :: _ ->
        Format.eprintf "unknown argument %S@." arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

(* ------------------------- --compare mode ---------------------------- *)

(* Diff the b1 rows of two bench documents; non-zero exit on regression
   so CI can gate on it.  Runs instead of the tables and never measures
   anything itself: both inputs are prior --json transcripts. *)
let run_compare (old_path, new_path) =
  let read path =
    match open_in_bin path with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Obs.Json.of_string (really_input_string ic (in_channel_length ic)))
    | exception Sys_error e -> Error e
  in
  match (read old_path, read new_path) with
  | Error e, _ ->
      Format.eprintf "%s: %s@." old_path e;
      exit 2
  | _, Error e ->
      Format.eprintf "%s: %s@." new_path e;
      exit 2
  | Ok old_doc, Ok new_doc -> (
      match Obs.Export.bench_compare ~threshold:!threshold old_doc new_doc with
      | Error e ->
          Format.eprintf "compare: %s@." e;
          exit 2
      | Ok deltas ->
          Format.printf "b1 comparison, threshold %+.0f%% (%s -> %s)@.@." (100.0 *. !threshold)
            old_path new_path;
          Format.printf "%-34s %14s %14s %8s@." "name" "old ns/op" "new ns/op" "ratio";
          let regressed = ref 0 in
          List.iter
            (fun (d : Obs.Export.bench_delta) ->
              if d.Obs.Export.cmp_regressed then incr regressed;
              Format.printf "%-34s %14.0f %14.0f %7.2fx%s@." d.Obs.Export.cmp_name
                d.Obs.Export.cmp_old d.Obs.Export.cmp_new d.Obs.Export.cmp_ratio
                (if d.Obs.Export.cmp_regressed then "  REGRESSED" else ""))
            deltas;
          if !regressed > 0 then begin
            Format.printf "@.%d benchmark(s) regressed beyond the %.0f%% threshold@." !regressed
              (100.0 *. !threshold);
            exit 1
          end
          else begin
            Format.printf "@.no regressions (%d benchmarks compared)@." (List.length deltas);
            exit 0
          end)

let want t = !which_table = "all" || !which_table = t

(* ------------------------- --json collector ------------------------- *)

(* Every printed table row is mirrored as one record here, so a run with
   --json leaves a machine-readable transcript of exactly what was shown.
   Rows accumulate newest-first and are reversed on write. *)
let json_rows : Obs.Json.t list ref = ref []

let js s = Obs.Json.Str s
let ji i = Obs.Json.Int i
let jf f = Obs.Json.Float f
let jb b = Obs.Json.Bool b

let record ~table row =
  if !json_path <> None then json_rows := Obs.Json.Obj (("table", js table) :: row) :: !json_rows

let bench_schema = Obs.Export.bench_schema

let write_json path =
  let doc =
    Obs.Json.Obj
      [
        ("schema", js bench_schema);
        ("full", jb !full);
        ("provenance",
         Obs.Json.Obj
           [
             ("timer", js "Unix.gettimeofday");
             ("timer_kind", js "wall-clock");
             ("jobs", ji !jobs);
             ("recommended_domain_count", ji (Exec.default_jobs ()));
             ("note",
              js
                "keygen warm_seconds rows are wall time (was Sys.time process CPU time \
                 before the coinlint PR)");
           ]);
        ("rows", Obs.Json.List (List.rev !json_rows));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Obs.Json.to_channel oc doc;
      output_char oc '\n');
  Format.printf "wrote %d rows to %s@." (List.length !json_rows) path

let section title =
  Format.printf "@.=== %s %s@." title (String.make (max 0 (72 - String.length title)) '=')

(* Keyrings are cached per n and warmed eagerly: setup is part of the PKI
   assumption, not of the protocols' measured cost, so sweeps must never
   pay lazy keygen mid-measurement.  The warm-up time is reported as its
   own row instead. *)
let keyrings : (int, Vrf.Keyring.t) Hashtbl.t = Hashtbl.create 8

let keyring n =
  match Hashtbl.find_opt keyrings n with
  | Some kr -> kr
  | None ->
      let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:(Printf.sprintf "bench-%d" n) () in
      (* Wall clock, not [Sys.time]: keygen warm-up is dominated by a
         single thread but CPU time would hide any page-cache or allocator
         stalls the operator actually waits through. *)
      let t0 = Unix.gettimeofday () in
      Vrf.Keyring.warm kr;
      let dt = Unix.gettimeofday () -. t0 in
      record ~table:"keygen"
        [ ("n", ji n); ("backend", js "mock"); ("warm_seconds", jf dt) ];
      Hashtbl.replace keyrings n kr;
      kr

(* A lambda with enough concentration margin to make runs reliable at
   finite n (>= ~3 sigma for the W threshold); the paper's 8 ln n is used
   where the point is to expose its finite-n behaviour.  See EXPERIMENTS.md. *)
let practical_lambda n =
  min n (max (Core.Params.default_lambda ~n) (int_of_float (6.4 *. sqrt (float_of_int n))))

let practical_params ?(epsilon = 0.25) n =
  Core.Params.make_exn ~strict:false ~epsilon ~d:0.04 ~lambda:(practical_lambda n) ~n ()

(* ------------------------------------------------------------------ *)
(* T1: Table 1                                                         *)
(* ------------------------------------------------------------------ *)

let table_t1 () =
  section "T1: Table 1 -- asynchronous BA protocols (measured at small scale)";
  let trials = if !full then 10 else 5 in
  Format.printf
    "paper columns: resilience / word complexity; measured: mixed inputs, f@.\
     crashed processes, random asynchrony, %d seeded runs each.@.@."
    trials;
  Format.printf "%-22s %6s %6s %4s %12s %7s %5s %5s@." "protocol" "n>" "n" "f" "words" "rounds"
    "term" "safe";
  let row name resilience n f run =
    let words = ref [] and rounds = ref [] and safe = ref true and live = ref true in
    for i = 1 to trials do
      let w, r, ok_safe, ok_live = run i in
      words := float_of_int w :: !words;
      rounds := float_of_int r :: !rounds;
      safe := !safe && ok_safe;
      live := !live && ok_live
    done;
    Format.printf "%-22s %6s %6d %4d %12.0f %7.1f %5b %5b@." name resilience n f
      (Core.Stats.mean !words) (Core.Stats.mean !rounds) !live !safe;
    record ~table:"t1"
      [
        ("protocol", js name);
        ("resilience", js resilience);
        ("n", ji n);
        ("f", ji f);
        ("words", jf (Core.Stats.mean !words));
        ("rounds", jf (Core.Stats.mean !rounds));
        ("term", jb !live);
        ("safe", jb !safe);
      ]
  in
  let inputs n i = Array.init n (fun p -> (p + i) mod 2) in
  let crash n f i = Crypto.Rng.sample_without_replacement (Crypto.Rng.create (i * 997)) f n in
  row "Ben-Or 83 (local)" "5f" 30 5 (fun i ->
      let o =
        Baselines.Brun.run_benor ~n:30 ~f:5 ~pre_crash:(crash 30 5 i) ~inputs:(inputs 30 i)
          ~seed:(100 + i) ()
      in
      ( o.Baselines.Brun.words,
        o.Baselines.Brun.rounds,
        o.Baselines.Brun.agreement,
        o.Baselines.Brun.all_decided ));
  row "Rabin 83 (dealer)" "10f" 33 3 (fun i ->
      let o =
        Baselines.Brun.run_rabin ~n:33 ~f:3 ~pre_crash:(crash 33 3 i) ~inputs:(inputs 33 i)
          ~seed:(200 + i) ()
      in
      ( o.Baselines.Brun.words,
        o.Baselines.Brun.rounds,
        o.Baselines.Brun.agreement,
        o.Baselines.Brun.all_decided ));
  row "Bracha 87 (RBC)" "3f" 30 9 (fun i ->
      let o =
        Baselines.Brun.run_bracha ~n:30 ~f:9 ~pre_crash:(crash 30 9 i) ~inputs:(inputs 30 i)
          ~seed:(300 + i) ()
      in
      ( o.Baselines.Brun.words,
        o.Baselines.Brun.rounds,
        o.Baselines.Brun.agreement,
        o.Baselines.Brun.all_decided ));
  row "MMR 15 + Alg.1 coin" "3f" 30 9 (fun i ->
      let o =
        Baselines.Brun.run_mmr ~coin:(Baselines.Mmr.Vrf_coin (keyring 30)) ~n:30 ~f:9
          ~pre_crash:(crash 30 9 i) ~inputs:(inputs 30 i) ~seed:(400 + i) ()
      in
      ( o.Baselines.Brun.words,
        o.Baselines.Brun.rounds,
        o.Baselines.Brun.agreement,
        o.Baselines.Brun.all_decided ));
  row "Ours (Alg.4, whp)" "~4.5f" 32 2 (fun i ->
      let p = practical_params 32 in
      let o =
        Core.Runner.run_ba
          ~corruption:(Core.Runner.Crash_random p.Core.Params.f)
          ~keyring:(keyring 32) ~params:p ~inputs:(inputs 32 i) ~seed:(500 + i) ()
      in
      ( o.Core.Runner.words,
        o.Core.Runner.rounds,
        o.Core.Runner.agreement,
        o.Core.Runner.all_decided ));
  (* Cachin et al.'s protocol proper needs threshold signatures; the
     dealer threshold coin plugged into MMR matches its row's resilience,
     word complexity and constant expected rounds. *)
  row "Cachin-style (thresh)" "3f" 30 9 (fun i ->
      let dc = Baselines.Dealer_coin.make ~n:30 ~threshold:10 ~seed:(Printf.sprintf "t1-%d" i) in
      let o =
        Baselines.Brun.run_mmr ~coin:(Baselines.Mmr.Threshold dc) ~n:30 ~f:9
          ~pre_crash:(crash 30 9 i) ~inputs:(inputs 30 i) ~seed:(450 + i) ()
      in
      ( o.Baselines.Brun.words,
        o.Baselines.Brun.rounds,
        o.Baselines.Brun.agreement,
        o.Baselines.Brun.all_decided ));
  Format.printf "%-22s %6s   (paper-only row: n > 400f is infeasible at bench scale)@."
    "King-Saia 13" "400f"

(* ------------------------------------------------------------------ *)
(* E2: word-complexity scaling                                         *)
(* ------------------------------------------------------------------ *)

let table_e2 () =
  section "E2: word complexity scaling -- ours vs quadratic MMR";
  let ns = if !full then [ 64; 128; 256; 512; 1024 ] else [ 64; 128; 256 ] in
  let mmr_ns = List.filter (fun n -> n <= 512) ns in
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
      let inputs i = Array.init n (fun p -> (p + i) mod 2) in
      let lam_paper = min n (Core.Params.default_lambda ~n) in
      let p_paper =
        Core.Params.make_exn ~strict:false ~epsilon:0.3 ~d:0.037 ~lambda:lam_paper ~n ()
      in
      let attempts = if n >= 512 then 8 else 12 in
      let completed = ref [] in
      for i = 1 to attempts do
        let o =
          Core.Runner.run_ba ~keyring:kr ~params:p_paper ~inputs:(inputs i) ~seed:(n + i) ()
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
                 Core.Runner.run_ba ~keyring:kr ~params:p_prac ~inputs:(inputs i)
                   ~seed:((2 * n) + i) ()
               in
               float_of_int o.Core.Runner.words))
      in
      let mmr_words =
        if List.exists (Int.equal n) mmr_ns then begin
          let o =
            Baselines.Brun.run_mmr
              ~coin:(Baselines.Mmr.Vrf_coin kr)
              ~n ~f:(n / 4) ~inputs:(inputs 1) ~seed:(3 * n) ()
          in
          Some (float_of_int o.Baselines.Brun.words)
        end
        else None
      in
      if not (Float.is_nan paper_words) then
        ours_paper := (float_of_int n, paper_words) :: !ours_paper;
      ours_prac := (float_of_int n, prac_words) :: !ours_prac;
      (match mmr_words with Some w -> mmr := (float_of_int n, w) :: !mmr | None -> ());
      Format.printf "%6d | %10.3e %8.0f%% %5d | %10.3e %5d | %10s@." n paper_words
        (100.0 *. completion) p_paper.Core.Params.lambda prac_words p_prac.Core.Params.lambda
        (match mmr_words with Some w -> Printf.sprintf "%.3e" w | None -> "-");
      record ~table:"e2"
        [
          ("n", ji n);
          ("ours_paper_words", jf paper_words);
          ("completion", jf completion);
          ("lambda_paper", ji p_paper.Core.Params.lambda);
          ("ours_practical_words", jf prac_words);
          ("lambda_practical", ji p_prac.Core.Params.lambda);
          ("mmr_words", match mmr_words with Some w -> jf w | None -> Obs.Json.Null);
        ])
    ns;
  let slope pts = try Core.Stats.loglog_slope pts with Invalid_argument _ -> nan in
  Format.printf "@.log-log slopes: ours(8ln n) %.2f  ours(practical) %.2f  mmr %.2f@."
    (slope !ours_paper) (slope !ours_prac) (slope !mmr);
  record ~table:"e2-summary"
    [
      ("slope_ours_paper", jf (slope !ours_paper));
      ("slope_ours_practical", jf (slope !ours_prac));
      ("slope_mmr", jf (slope !mmr));
    ];
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

(* ------------------------------------------------------------------ *)
(* E3: shared-coin success rate vs epsilon (Lemma 4.8)                 *)
(* ------------------------------------------------------------------ *)

let table_e3 () =
  section "E3: Algorithm 1 success rate vs epsilon (Lemma 4.8)";
  let n = 48 in
  let trials = if !full then 400 else 150 in
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
        Core.Analysis.estimate_shared_coin ?scheduler ~jobs:!jobs ~keyring:(keyring n) ~n ~f
          ~crash:f ~trials ~base_seed ()
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
        worst.Core.Analysis.success_rate lo hi (hi >= bound);
      record ~table:"e3"
        [
          ("epsilon", jf epsilon);
          ("f", ji f);
          ("bound", jf bound);
          ("rho", jf worst.Core.Analysis.success_rate);
          ("ci_lo", jf lo);
          ("ci_hi", jf hi);
          ("ok", jb (hi >= bound));
        ])
    [ 0.15; 0.20; 0.25; 0.30; 1.0 /. 3.0 ];
  Format.printf
    "@.expected shape: empirical rho consistent with (and well above) the Lemma 4.8@.\
     bound at small epsilon, approaching the fair-coin 1/2 as epsilon -> 1/3@.\
     (Remark 4.10: f = 0 gives a perfectly fair coin).@."

(* ------------------------------------------------------------------ *)
(* E4: WHP coin success rate (Lemma B.7) and the lambda trade-off      *)
(* ------------------------------------------------------------------ *)

let table_e4 () =
  section "E4: Algorithm 2 (WHP coin) success rate and lambda trade-off (Lemma B.7)";
  let n = 128 in
  let trials = if !full then 300 else 120 in
  Format.printf "n = %d, %d flips per row; f random processes crashed per flip.@.@." n trials;
  Format.printf "%8s %6s %4s %4s | %8s | %8s %9s %10s@." "lambda" "d" "W" "B" "bound" "rho"
    "shortfall" "words";
  List.iter
    (fun (lambda, d) ->
      let params = Core.Params.make_exn ~strict:false ~epsilon:0.28 ~d ~lambda ~n () in
      let est =
        Core.Analysis.estimate_whp_coin ~jobs:!jobs ~keyring:(keyring n) ~params
          ~crash:params.Core.Params.f ~trials ~base_seed:4000 ()
      in
      let bound = Core.Params.whp_coin_success_bound ~d in
      Format.printf "%8d %6.3f %4d %4d | %8.3f | %8.3f %8.0f%% %10.0f@." lambda d
        params.Core.Params.w params.Core.Params.b bound est.Core.Analysis.success_rate
        (100.0 *. float_of_int est.Core.Analysis.disagree /. float_of_int trials)
        est.Core.Analysis.mean_words;
      record ~table:"e4"
        [
          ("lambda", ji lambda);
          ("d", jf d);
          ("w", ji params.Core.Params.w);
          ("b", ji params.Core.Params.b);
          ("bound", jf bound);
          ("rho", jf est.Core.Analysis.success_rate);
          ("shortfall", jf (float_of_int est.Core.Analysis.disagree /. float_of_int trials));
          ("mean_words", jf est.Core.Analysis.mean_words);
        ])
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

(* ------------------------------------------------------------------ *)
(* E5: committee-sampling properties (Claim 1)                         *)
(* ------------------------------------------------------------------ *)

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

let table_e5 () =
  section "E5: Claim 1 -- S1-S4 frequencies vs their Chernoff bounds";
  let ns = if !full then [ 64; 256; 1024; 4096 ] else [ 64; 256; 1024 ] in
  let trials = if !full then 2000 else 600 in
  Format.printf
    "%d committees per (n, lambda); f random corruptions; eps = 0.28, d = 0.05.@.\
     each S_i column shows measured frequency / Appendix-A lower bound.@.@."
    trials;
  Format.printf "%6s %6s | %13s %13s %13s %13s | %5s@." "n" "lambda" "S1" "S2" "S3" "S4" "ok?";
  List.iter
    (fun n ->
      List.iter
        (fun mult ->
          let lambda = min n (mult * Core.Params.default_lambda ~n / 8) in
          let params = Core.Params.make_exn ~strict:false ~epsilon:0.28 ~d:0.05 ~lambda ~n () in
          let est =
            Core.Analysis.estimate_committees ~jobs:!jobs ~keyring:(keyring n) ~params ~trials
              ~base_seed:n ()
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
            est.Core.Analysis.s4 b4 ok;
          record ~table:"e5"
            [
              ("n", ji n);
              ("lambda", ji lambda);
              ("s1", jf est.Core.Analysis.s1);
              ("s1_bound", jf b1);
              ("s2", jf est.Core.Analysis.s2);
              ("s2_bound", jf b2);
              ("s3", jf est.Core.Analysis.s3);
              ("s3_bound", jf b3);
              ("s4", jf est.Core.Analysis.s4);
              ("s4_bound", jf b4);
              ("ok", jb ok);
            ])
        [ 8; 24 ])
    ns;
  Format.printf
    "@.expected shape: every measured frequency is above its theoretical bound.@.\
     The bounds themselves are weak: their exponents c_i * lambda sit well below 1@.\
     at lambda = 8 ln n and realistic d, so 'whp' kicks in only at astronomical n@.\
     -- concentration in practice comes from raising the lambda constant (the@.\
     24-ln-n rows), which Claim 1 allows.  See EXPERIMENTS.md.@."

(* ------------------------------------------------------------------ *)
(* E6: expected constant time                                          *)
(* ------------------------------------------------------------------ *)

let table_e6 () =
  section "E6: rounds to decision and causal depth vs n (expected O(1) time)";
  let ns = if !full then [ 32; 64; 128; 256 ] else [ 32; 64; 128 ] in
  let trials = if !full then 20 else 10 in
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
        Core.Analysis.estimate_ba ?scheduler ~jobs:!jobs ~keyring:kr ~params ~trials ~base_seed ()
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
      Format.printf "%6d | %16s %16s | %16s %16s@." n r1 d1 r2 d2;
      record ~table:"e6"
        [
          ("n", ji n);
          ("rounds_random", jf rand.Core.Analysis.rounds.Core.Stats.mean);
          ("rounds_random_p95", jf rand.Core.Analysis.rounds.Core.Stats.p95);
          ("depth_random", jf rand.Core.Analysis.depth.Core.Stats.mean);
          ("depth_random_p95", jf rand.Core.Analysis.depth.Core.Stats.p95);
          ("rounds_split", jf split.Core.Analysis.rounds.Core.Stats.mean);
          ("rounds_split_p95", jf split.Core.Analysis.rounds.Core.Stats.p95);
          ("depth_split", jf split.Core.Analysis.depth.Core.Stats.mean);
          ("depth_split_p95", jf split.Core.Analysis.depth.Core.Stats.p95);
        ])
    ns;
  Format.printf
    "@.expected shape: rounds flat (~1-3) in n under both schedulers; causal depth@.\
     tracks rounds, not n -- the paper's O(1) expected time.@."

(* ------------------------------------------------------------------ *)
(* E7: delayed-adaptivity ablation                                     *)
(* ------------------------------------------------------------------ *)

let table_e7 () =
  section "E7: why delayed adaptivity matters (ablation, section 2)";
  let n = 48 in
  let f = 7 in
  let trials = if !full then 200 else 80 in
  let kr = keyring n in
  Format.printf
    "Algorithm 1 coin, n = %d, f = %d, %d flips per adversary.  The cheating@.\
     adversary corrupts holders of the smallest LSB-0 VRF draws before they@.\
     send -- corruption conditioned on message content, which Definition 2.1@.\
     forbids.@.@."
    n f trials;
  let count ~cheat =
    let ones = ref 0 and unanimous = ref 0 in
    for seed = 1 to trials do
      let pre_corrupt =
        if not cheat then []
        else begin
          let instance = Printf.sprintf "coin-%d" seed in
          let alpha = Printf.sprintf "%s/coin/%d" instance seed in
          let draws = List.init n (fun pid -> (pid, (Vrf.Keyring.prove kr pid alpha).Vrf.beta)) in
          let sorted = List.sort (fun (_, a) (_, b) -> Vrf.compare_beta a b) draws in
          let rec pick acc = function
            | (pid, beta) :: rest when List.length acc < f ->
                if Int.equal (Vrf.beta_lsb beta) 0 then pick (pid :: acc) rest else acc
            | _ -> acc
          in
          pick [] sorted
        end
      in
      let o = Core.Runner.run_shared_coin ~pre_corrupt ~keyring:kr ~n ~f ~round:seed ~seed () in
      match o.Core.Runner.unanimous with
      | Some b ->
          incr unanimous;
          if b = 1 then incr ones
      | None -> ()
    done;
    (!ones, !unanimous)
  in
  let fair_ones, fair_u = count ~cheat:false in
  let cheat_ones, cheat_u = count ~cheat:true in
  let report name ones unanimous =
    Format.printf "%-34s P[coin = 1 | unanimous] = %3d/%3d = %.2f@." name ones unanimous
      (float_of_int ones /. float_of_int (max 1 unanimous));
    record ~table:"e7"
      [
        ("adversary", js name);
        ("ones", ji ones);
        ("unanimous", ji unanimous);
        ("p_one", jf (float_of_int ones /. float_of_int (max 1 unanimous)));
      ]
  in
  report "compliant (content-oblivious)" fair_ones fair_u;
  report "cheating (content-adaptive)" cheat_ones cheat_u;
  Format.printf
    "@.expected shape: ~0.5 for the compliant adversary; ~1 - 2^-(f+1) = %.2f for@.\
     the cheating one -- without the delayed-adaptive restriction the coin has no@.\
     two-sided success rate and Algorithm 4's termination argument collapses.@."
    (1.0 -. (0.5 ** float_of_int (f + 1)))

(* ------------------------------------------------------------------ *)
(* E8: eventual synchrony                                              *)
(* ------------------------------------------------------------------ *)

let table_e8 () =
  section "E8: behaviour under eventual synchrony (extension experiment)";
  let n = 48 in
  let trials = if !full then 10 else 5 in
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
            ~keyring:kr ~params
            ~inputs:(Array.init n (fun p -> (p + i) mod 2))
            ~seed:(7000 + (int_of_float gst * 100) + i) ()
        in
        vtimes := o.Core.Runner.vtime :: !vtimes;
        rounds := float_of_int o.Core.Runner.rounds :: !rounds;
        safe := !safe && o.Core.Runner.agreement;
        live := !live && o.Core.Runner.all_decided
      done;
      Format.printf "%8.0f | %10.1f %10.1f %8b %8b@." gst (Core.Stats.mean !vtimes)
        (Core.Stats.mean !rounds) !safe !live;
      record ~table:"e8"
        [
          ("gst", jf gst);
          ("vtime", jf (Core.Stats.mean !vtimes));
          ("rounds", jf (Core.Stats.mean !rounds));
          ("safe", jb !safe);
          ("decided", jb !live);
        ])
    [ 0.0; 25.0; 100.0; 400.0 ];
  Format.printf
    "@.expected shape: vtime ~ GST + O(1) for GST below the chaotic completion@.\
     time (~causal depth x chaos mean): the in-flight chaotic messages resolve@.\
     right after stabilisation and the protocol finishes immediately — no@.\
     timeout machinery to re-arm, because an asynchronous protocol never waits@.\
     on timers.  Safety holds at every GST, including during full chaos.@."

(* ------------------------------------------------------------------ *)
(* E9: repeated agreement (chain) throughput                           *)
(* ------------------------------------------------------------------ *)

let table_e9 () =
  section "E9: concurrent repeated agreement over one PKI (extension experiment)";
  let n = 32 in
  let params =
    Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n ()
  in
  let kr = keyring n in
  let slot_counts = if !full then [ 1; 2; 4; 8; 16 ] else [ 1; 2; 4; 8 ] in
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
        (safe && o.Core.Chain.all_slots_decided);
      record ~table:"e9"
        [
          ("slots", ji k);
          ("words", ji o.Core.Chain.total_words);
          ("words_per_slot", jf (float_of_int o.Core.Chain.total_words /. float_of_int k));
          ("depth", ji o.Core.Chain.depth);
          ("safe", jb (safe && o.Core.Chain.all_slots_decided));
        ])
    slot_counts;
  Format.printf
    "@.expected shape: words/slot roughly constant in k (no interference),@.\
     causal depth flat (slots progress in parallel) -- the paper's 'setup@.\
     once, any number of BA instances' in action.@."

(* ------------------------------------------------------------------ *)
(* SC: estimator throughput vs jobs (Exec domain pool)                  *)
(* ------------------------------------------------------------------ *)

let table_scaling () =
  section "SC: estimator trials/sec vs jobs (Exec domain pool)";
  let n = 32 in
  let kr = keyring n in
  let params = practical_params n in
  let coin_trials = if !full then 400 else 120 in
  let ba_trials = if !full then 24 else 8 in
  Format.printf
    "shared-coin and BA campaign throughput at jobs = 1/2/4/8 (n = %d).  The@.\
     estimator output is byte-identical at every jobs value (DESIGN.md), so@.\
     this table is wall-clock only.  recommended_domain_count here: %d.@.@."
    n (Exec.default_jobs ());
  Format.printf "%6s | %14s %8s | %14s %8s@." "jobs" "coin trials/s" "speedup" "ba trials/s"
    "speedup";
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let base_coin = ref nan and base_ba = ref nan in
  List.iter
    (fun j ->
      let dt_coin =
        time (fun () ->
            ignore
              (Core.Analysis.estimate_shared_coin ~jobs:j ~crash:4 ~keyring:kr ~n ~f:4
                 ~trials:coin_trials ~base_seed:31337 ()))
      in
      let dt_ba =
        time (fun () ->
            ignore
              (Core.Analysis.estimate_ba ~jobs:j ~keyring:kr ~params ~trials:ba_trials
                 ~base_seed:4242 ()))
      in
      let coin_tps = float_of_int coin_trials /. dt_coin in
      let ba_tps = float_of_int ba_trials /. dt_ba in
      if j = 1 then begin
        base_coin := coin_tps;
        base_ba := ba_tps
      end;
      Format.printf "%6d | %14.1f %7.2fx | %14.1f %7.2fx@." j coin_tps (coin_tps /. !base_coin)
        ba_tps (ba_tps /. !base_ba);
      record ~table:"scaling"
        [
          ("jobs", ji j);
          ("recommended_domain_count", ji (Exec.default_jobs ()));
          ("coin_trials", ji coin_trials);
          ("coin_trials_per_sec", jf coin_tps);
          ("coin_speedup", jf (coin_tps /. !base_coin));
          ("ba_trials", ji ba_trials);
          ("ba_trials_per_sec", jf ba_tps);
          ("ba_speedup", jf (ba_tps /. !base_ba));
        ])
    [ 1; 2; 4; 8 ];
  Format.printf
    "@.expected shape: near-linear speedup until jobs exceeds the physical core@.\
     count, then flat or worse -- on a single-core container every jobs > 1@.\
     point is a slowdown (OCaml 5 minor-GC barriers across domains).@."

(* ------------------------------------------------------------------ *)
(* SIM: simulator throughput, ledger attached vs not                   *)
(* ------------------------------------------------------------------ *)

(* The ledger's price tag: the ISSUE's "cheap enough to leave attached"
   claim as a measured ratio.  Attachment must not change outcomes
   (t_ledger pins byte-identity); this table pins the cost. *)
let table_sim () =
  section "SIM: simulator messages/sec -- word-complexity ledger attached vs not";
  let runs = if !full then 6 else 3 in
  Format.printf
    "BA at n = 64 (mixed inputs) and Ben-Or at large n (unanimous), %d seeded@.\
     runs per row; msgs/sec counts correct-process sends over wall time.@.@."
    runs;
  Format.printf "%-22s %8s | %12s %12s %9s@." "protocol" "n" "plain msg/s" "ledger msg/s"
    "overhead";
  let rate f =
    let t0 = Unix.gettimeofday () in
    let msgs = ref 0 in
    for i = 1 to runs do
      msgs := !msgs + f i
    done;
    (float_of_int !msgs /. (Unix.gettimeofday () -. t0), !msgs)
  in
  let row name n plain with_ledger =
    let plain_rate, _ = rate plain in
    let ledger_rate, msgs = rate with_ledger in
    let overhead = (plain_rate /. ledger_rate) -. 1.0 in
    Format.printf "%-22s %8d | %12.0f %12.0f %8.1f%%@." name n plain_rate ledger_rate
      (100.0 *. overhead);
    record ~table:"sim"
      [
        ("protocol", js name);
        ("n", ji n);
        ("msgs", ji msgs);
        ("plain_msgs_per_sec", jf plain_rate);
        ("ledger_msgs_per_sec", jf ledger_rate);
        ("overhead", jf overhead);
      ]
  in
  (* Raw engine throughput at bench scale: n = 10^4 empty-handler
     broadcasts under the default (random/exponential) scheduler.  All
     broadcasts are enqueued before the run so the event queue carries
     the full concurrent load.  The row keeps its historical name,
     engine-lazy, so it stays comparable with older BENCH_micro.json
     rows.  It carries a [msgs_per_sec] member, which is what routes it
     through the bench --compare regression gate
     (Obs.Export.comparable_rows maps it to "sim/engine-lazy" ns/msg). *)
  let engine_row () =
    let name = "engine-lazy" in
    let n = 10_000 in
    let rounds = if !full then 100 else 20 in
    let eng : int Sim.Engine.t = Sim.Engine.create ~n ~seed:4242 () in
    for pid = 0 to n - 1 do
      Sim.Engine.set_handler eng pid (fun _ -> ())
    done;
    let t0 = Unix.gettimeofday () in
    for r = 0 to rounds - 1 do
      Sim.Engine.broadcast eng ~src:(r mod n) ~words:1 r
    done;
    ignore (Sim.Engine.run eng ~until:(fun () -> false));
    let dt = Unix.gettimeofday () -. t0 in
    let msgs = rounds * n in
    let rate = float_of_int msgs /. dt in
    Format.printf "%-22s %8d | %12.0f msgs/sec@." name n rate;
    record ~table:"sim"
      [ ("protocol", js name); ("n", ji n); ("msgs", ji msgs); ("msgs_per_sec", jf rate) ]
  in
  (* Heap preallocation audit: push/drain throughput with the queue
     preallocated via [create ?capacity] vs grown from the 16-entry
     default — the growth-doubling resize copies are the entire
     difference. *)
  let heap_row () =
    let ops = if !full then 400_000 else 100_000 in
    let run capacity =
      let rng = Crypto.Rng.create 99 in
      let h = Sim.Heap.create ?capacity () in
      let t0 = Unix.gettimeofday () in
      for i = 0 to ops - 1 do
        Sim.Heap.push h (Crypto.Rng.float rng 1.0) i i
      done;
      while Sim.Heap.size h > 0 do
        Sim.Heap.drop h
      done;
      float_of_int ops /. (Unix.gettimeofday () -. t0)
    in
    let grow_rate = run None in
    let pre_rate = run (Some ops) in
    let win = (pre_rate /. grow_rate) -. 1.0 in
    Format.printf "%-22s %8d | %12.0f %12.0f %8.1f%%@." "heap push+drain" ops pre_rate grow_rate
      (100.0 *. win);
    record ~table:"sim"
      [
        ("protocol", js "heap-prealloc");
        ("n", ji ops);
        ("prealloc_ops_per_sec", jf pre_rate);
        ("grow_ops_per_sec", jf grow_rate);
        ("prealloc_win", jf win);
      ]
  in
  let n = 64 in
  let kr = keyring n in
  let params = practical_params n in
  let inputs i = Array.init n (fun p -> (p + i) mod 2) in
  let ba_ledger = Sim.Ledger.create () in
  row "BA (Alg.4)" n
    (fun i ->
      (Core.Runner.run_ba ~keyring:kr ~params ~inputs:(inputs i) ~seed:(600 + i) ())
        .Core.Runner.msgs)
    (fun i ->
      (Core.Runner.run_ba
         ~probe:(fun eng -> Core.Instrument.attach_ba_ledger eng ba_ledger)
         ~keyring:kr ~params ~inputs:(inputs i) ~seed:(600 + i) ())
        .Core.Runner.msgs);
  let bn = if !full then 1024 else 400 in
  let b_inputs = Array.make bn 1 in
  let b_ledger = Sim.Ledger.create () in
  row "Ben-Or (unanimous)" bn
    (fun i ->
      (Baselines.Brun.run_benor ~n:bn ~f:((bn - 1) / 5) ~inputs:b_inputs ~seed:(700 + i) ())
        .Baselines.Brun.msgs)
    (fun i ->
      (Baselines.Brun.run_benor
         ~probe:(fun eng ->
           Sim.Ledger.attach eng b_ledger ~tag_of:Baselines.Benor.tag_of_msg
             ~round_of:Baselines.Benor.round_of_msg ())
         ~n:bn ~f:((bn - 1) / 5) ~inputs:b_inputs ~seed:(700 + i) ())
        .Baselines.Brun.msgs);
  Format.printf "@.%-22s %8s | %12s@." "engine (raw)" "n" "throughput";
  engine_row ();
  Format.printf "@.%-22s %8s | %12s %12s %9s@." "heap" "ops" "prealloc/s" "grow/s" "win";
  heap_row ();
  Format.printf
    "@.expected shape: overhead within a few percent -- the ledger's record path@.\
     is a phase lookup plus integer stores, no allocation, no hashing.@."

(* ------------------------------------------------------------------ *)
(* B1: bechamel microbenchmarks                                        *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "B1: primitive microbenchmarks (bechamel, ns/op)";
  let open Bechamel in
  let input_64 = String.make 64 'x' in
  let input_4k = String.make 4096 'x' in
  let drbg = Crypto.Drbg.create "bench" in
  let random n = Crypto.Drbg.generate drbg n in
  let rsa_sk = Rsa.keygen ~bits:512 ~random in
  let rsa_pk = Rsa.public_of_secret rsa_sk in
  let rsa_verifier = Rsa.verifier rsa_pk in
  let rsa_sig = Rsa.sign rsa_sk "bench-message" in
  let mont = Bignum.Bigint.Mont.create rsa_pk.Rsa.n in
  let base = Bignum.Bigint.of_hex "123456789abcdef0" in
  let exp = Bignum.Bigint.of_hex "fedcba9876543210fedcba9876543210" in
  (* a full-width exponent for the window-vs-binary ladder comparison *)
  let exp_512 = Bignum.Bigint.pred rsa_pk.Rsa.n in
  let elem_a = Bignum.Bigint.Mont.to_mont mont (Rsa.fdh rsa_pk "kernel-a") in
  let elem_b = Bignum.Bigint.Mont.to_mont mont (Rsa.fdh rsa_pk "kernel-b") in
  let keygen_drbg = Crypto.Drbg.create "bench-keygen" in
  let shares = Field.Shamir.deal ~secret:(Field.Gf.of_int 4242) ~threshold:11 ~n:33 random in
  let share_subset = Array.to_list (Array.sub shares 0 11) in
  let kr = keyring 64 in
  let vrf_out = Vrf.Keyring.prove kr 0 "bench-alpha" in
  (* Verification memo effect on the real backend: same certificate each
     iteration, one keyring with the default cache bound and one with the
     cache disabled. *)
  let fdh_cached = Vrf.Keyring.create ~backend:(Vrf.Rsa_fdh { bits = 256 }) ~n:4 ~seed:"bench-vc" () in
  let fdh_uncached =
    Vrf.Keyring.create ~backend:(Vrf.Rsa_fdh { bits = 256 }) ~cache_bound:0 ~n:4 ~seed:"bench-vc" ()
  in
  let fdh_out = Vrf.Keyring.prove fdh_cached 0 "bench-alpha" in
  let dleq_grp = Vrf.Group.generate ~qbits:160 ~seed:"bench-grp" () in
  let dleq_sk = Vrf.Dleq_vrf.keygen dleq_grp ~random in
  let dleq_pk = Vrf.Dleq_vrf.public_of_secret dleq_sk in
  let dleq_out = Vrf.Dleq_vrf.prove dleq_grp dleq_sk "bench" in
  let counter = ref 0 in
  let tests =
    [
      Test.make ~name:"sha256-64B" (Staged.stage (fun () -> Crypto.Sha256.digest input_64));
      Test.make ~name:"sha256-4KiB" (Staged.stage (fun () -> Crypto.Sha256.digest input_4k));
      Test.make ~name:"hmac-sha256-64B"
        (Staged.stage (fun () -> Crypto.Hmac.sha256 ~key:"key" input_64));
      Test.make ~name:"modpow-512b" (Staged.stage (fun () -> Bignum.Bigint.Mont.pow mont base exp));
      (* window-vs-binary ladder on a full-width exponent, and the raw
         multiply kernel the ladders are built from (it squares too) *)
      Test.make ~name:"modpow-512b-window"
        (Staged.stage (fun () -> Bignum.Bigint.Mont.pow mont base exp_512));
      Test.make ~name:"modpow-512b-binary"
        (Staged.stage (fun () -> Bignum.Bigint.Mont.pow_binary mont base exp_512));
      Test.make ~name:"mont-mul-512b"
        (Staged.stage (fun () -> Bignum.Bigint.Mont.mul mont elem_a elem_b));
      Test.make ~name:"rsa512-sign" (Staged.stage (fun () -> Rsa.sign rsa_sk "bench-message"));
      Test.make ~name:"rsa512-sign-plain"
        (Staged.stage (fun () -> Rsa.sign_plain rsa_sk "bench-message"));
      Test.make ~name:"rsa512-verify"
        (Staged.stage (fun () -> Rsa.verify' rsa_verifier "bench-message" rsa_sig));
      Test.make ~name:"rsa512-keygen"
        (Staged.stage (fun () -> Rsa.keygen ~bits:512 ~random:(Crypto.Drbg.generate keygen_drbg)));
      Test.make ~name:"vrf-prove-mock"
        (Staged.stage (fun () ->
             incr counter;
             Vrf.Keyring.prove kr (!counter mod 64) (string_of_int !counter)));
      Test.make ~name:"vrf-verify-mock"
        (Staged.stage (fun () -> Vrf.Keyring.verify kr ~signer:0 "bench-alpha" vrf_out));
      Test.make ~name:"keyring-verify-cached"
        (Staged.stage (fun () -> Vrf.Keyring.verify fdh_cached ~signer:0 "bench-alpha" fdh_out));
      Test.make ~name:"keyring-verify-uncached"
        (Staged.stage (fun () -> Vrf.Keyring.verify fdh_uncached ~signer:0 "bench-alpha" fdh_out));
      Test.make ~name:"dleq160-prove"
        (Staged.stage (fun () ->
             incr counter;
             Vrf.Dleq_vrf.prove dleq_grp dleq_sk (string_of_int !counter)));
      Test.make ~name:"dleq160-verify"
        (Staged.stage (fun () -> Vrf.Dleq_vrf.verify dleq_grp dleq_pk "bench" dleq_out));
      Test.make ~name:"shamir-deal-33"
        (Staged.stage (fun () ->
             Field.Shamir.deal ~secret:(Field.Gf.of_int 7) ~threshold:11 ~n:33 random));
      Test.make ~name:"shamir-reconstruct-11"
        (Staged.stage (fun () -> Field.Shamir.reconstruct share_subset));
      Test.make ~name:"committee-sample"
        (Staged.stage (fun () ->
             incr counter;
             Core.Sample.sample kr ~pid:(!counter mod 64) ~s:(string_of_int !counter) ~lambda:33));
      Test.make ~name:"shared-coin-n24"
        (Staged.stage (fun () ->
             incr counter;
             Core.Runner.run_shared_coin ~keyring:(keyring 24) ~n:24 ~f:3 ~round:!counter
               ~seed:!counter ()));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"micro" tests)
  in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Bechamel.Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ est ] ->
          Format.printf "%-34s %14.0f ns/op@." name est;
          record ~table:"b1" [ ("name", js name); ("ns_per_op", jf est) ]
      | Some _ | None -> Format.printf "%-34s %14s@." name "n/a")
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let () =
  (match !compare_files with Some files -> run_compare files | None -> ());
  Format.printf "coincidence bench harness (seeded, deterministic)%s@."
    (if !full then " [--full]" else "");
  if want "t1" then table_t1 ();
  if want "e2" then table_e2 ();
  if want "e3" then table_e3 ();
  if want "e4" then table_e4 ();
  if want "e5" then table_e5 ();
  if want "e6" then table_e6 ();
  if want "e7" then table_e7 ();
  if want "e8" then table_e8 ();
  if want "e9" then table_e9 ();
  if want "scaling" then table_scaling ();
  if want "sim" then table_sim ();
  if !run_micro && (want "b1" || want "micro" || !which_table = "all") then micro ();
  (match !json_path with Some path -> write_json path | None -> ());
  Format.printf "@.done.@."
