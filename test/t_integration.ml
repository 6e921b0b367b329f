(* Cross-module integration: Table-1 smoke comparison, multi-instance key
   reuse, the E7-style cheating-adversary ablation, and metric coherence. *)

open Core

let test_table1_smoke () =
  (* Every implemented Table-1 row completes with safety on one workload. *)
  let n = 16 in
  let inputs = Array.init n (fun i -> i mod 2) in
  let check name all_decided agreement =
    Alcotest.(check bool) (name ^ " decided") true all_decided;
    Alcotest.(check bool) (name ^ " agreement") true agreement
  in
  let b = Baselines.Brun.run_benor ~n ~f:3 ~inputs ~seed:1 () in
  check "benor" b.Baselines.Brun.all_decided b.Baselines.Brun.agreement;
  let br = Baselines.Brun.run_bracha ~n ~f:5 ~inputs ~seed:2 () in
  check "bracha" br.Baselines.Brun.all_decided br.Baselines.Brun.agreement;
  let n_r = 22 in
  let r = Baselines.Brun.run_rabin ~n:n_r ~f:2 ~inputs:(Array.init n_r (fun i -> i mod 2)) ~seed:3 () in
  check "rabin" r.Baselines.Brun.all_decided r.Baselines.Brun.agreement;
  let m = Baselines.Brun.run_mmr ~coin:Baselines.Mmr.Ideal ~n ~f:5 ~inputs ~seed:4 () in
  check "mmr" m.Baselines.Brun.all_decided m.Baselines.Brun.agreement;
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"t1" () in
  let p = Params.make_exn ~strict:false ~n () in
  let ours = Runner.run_ba ~keyring:kr ~params:p ~inputs ~seed:5 () in
  check "ours" ours.Runner.all_decided ours.Runner.agreement

let test_keyring_reuse_across_instances () =
  (* One PKI setup serves many BA instances (the paper: "setup has to
     occur once and may be used for any number of BA instances"). *)
  let n = 24 in
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"reuse" () in
  let p = Params.make_exn ~strict:false ~n () in
  for seed = 1 to 4 do
    let inputs = Array.init n (fun i -> (i + seed) mod 2) in
    let o = Runner.run_ba ~keyring:kr ~params:p ~inputs ~seed ()
    in
    Alcotest.(check bool) (Printf.sprintf "instance %d safe" seed) true
      (o.Runner.all_decided && o.Runner.agreement)
  done

let test_cheating_adversary_biases_coin () =
  (* E7 ablation: a content-adaptive (model-violating) scheduler that stalls
     the smallest FIRST value it sees can bias the coin away from the
     minimum's LSB.  Verify our machinery lets the attack run and that the
     compliant adversary cannot tell values apart (its schedule is
     content-oblivious by construction). *)
  let n = 24 and f = 3 in
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"cheat" () in
  let target_bit = 0 in
  (* Omniscient content-adaptive attack (Attacks.coin_cheaters): look at
     the round's VRF draws and crash the (up to f) holders of the
     smallest values whose LSB is target_bit.  The n-f thresholds then
     exclude exactly those values, so the visible minimum almost always
     has LSB 1 (failure requires > f LSB-0 values below the smallest
     LSB-1 value, probability 2^-(f+1)). *)
  let biased = ref 0 in
  let trials = 30 in
  for seed = 1 to trials do
    (* Corrupt (crash) the victims before they send anything: this uses
       VRF contents the delayed-adaptive adversary is not allowed to see,
       which is exactly the point of the ablation. *)
    let victims = Attacks.coin_cheaters ~keyring:kr ~f ~seed ~round:seed in
    let o = Runner.run_shared_coin ~pre_corrupt:victims ~keyring:kr ~n ~f ~round:seed ~seed () in
    match o.Runner.unanimous with
    | Some b when b <> target_bit -> incr biased
    | Some _ | None -> ()
  done;
  (* The attack should push the outcome towards 1 - target_bit well beyond
     the fair 50%. *)
  Alcotest.(check bool)
    (Printf.sprintf "cheating adversary biased %d/%d runs" !biased trials)
    true
    (!biased > (trials / 2) + 3);
  (* Sanity: the compliant random scheduler stays roughly balanced. *)
  let fair = ref 0 in
  for seed = 1 to trials do
    let o = Runner.run_shared_coin ~keyring:kr ~n ~f ~round:(1000 + seed) ~seed () in
    match o.Runner.unanimous with Some b when b <> target_bit -> incr fair | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "compliant adversary balanced (%d/%d)" !fair trials)
    true
    (!fair < trials - 6 && !fair > 6)

let test_metrics_coherence () =
  (* words >= msgs (every message is at least one word); depth <= steps. *)
  let n = 24 in
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"metrics" () in
  let p = Params.make_exn ~strict:false ~n () in
  let o = Runner.run_ba ~keyring:kr ~params:p ~inputs:(Array.make n 1) ~seed:6 () in
  Alcotest.(check bool) "words >= msgs" true (o.Runner.words >= o.Runner.msgs);
  Alcotest.(check bool) "depth <= steps" true (o.Runner.depth <= o.Runner.steps);
  Alcotest.(check bool) "steps > 0" true (o.Runner.steps > 0)

let test_whp_coin_inside_ba_matches_standalone_liveness () =
  (* The BA's embedded coin and the standalone coin share code paths;
     run both at the same parameters to ensure neither starves. *)
  let n = 32 in
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"embed" () in
  let p = Params.make_exn ~strict:false ~n () in
  let c = Runner.run_whp_coin ~keyring:kr ~params:p ~round:0 ~seed:7 () in
  Alcotest.(check int) "standalone coin returns" n (List.length c.Runner.outputs);
  let o = Runner.run_ba ~keyring:kr ~params:p ~inputs:(Array.init n (fun i -> i mod 2)) ~seed:7 () in
  Alcotest.(check bool) "ba with embedded coins decides" true o.Runner.all_decided

let test_all_schedulers_all_protocols () =
  (* Safety sweep: {random, fifo, split, targeted} x {ours, mmr}. *)
  let n = 16 in
  let inputs = Array.init n (fun i -> i mod 2) in
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"sched-sweep" () in
  let p = Params.make_exn ~strict:false ~n () in
  let schedulers_ba : (string * Ba.msg Sim.Scheduler.t) list =
    [
      ("random", Sim.Scheduler.random ());
      ("fifo", Sim.Scheduler.fifo ());
      ("split", Sim.Scheduler.split ~group:(fun pid -> pid < 8) ~cross_delay:10.0 ());
      ("targeted", Sim.Scheduler.targeted ~victims:(fun pid -> pid < 4) ~factor:20.0 ());
    ]
  in
  List.iter
    (fun (name, s) ->
      let o = Runner.run_ba ~scheduler:s ~keyring:kr ~params:p ~inputs ~seed:8 () in
      Alcotest.(check bool) ("ours/" ^ name) true (o.Runner.all_decided && o.Runner.agreement))
    schedulers_ba;
  let schedulers_mmr : (string * Baselines.Mmr.msg Sim.Scheduler.t) list =
    [
      ("random", Sim.Scheduler.random ());
      ("fifo", Sim.Scheduler.fifo ());
      ("split", Sim.Scheduler.split ~group:(fun pid -> pid < 8) ~cross_delay:10.0 ());
    ]
  in
  List.iter
    (fun (name, s) ->
      let o = Baselines.Brun.run_mmr ~scheduler:s ~coin:Baselines.Mmr.Ideal ~n ~f:5 ~inputs ~seed:9 () in
      Alcotest.(check bool) ("mmr/" ^ name) true (o.Baselines.Brun.all_decided && o.Baselines.Brun.agreement))
    schedulers_mmr

let suite =
  [
    Alcotest.test_case "table 1 smoke" `Slow test_table1_smoke;
    Alcotest.test_case "keyring reuse" `Slow test_keyring_reuse_across_instances;
    Alcotest.test_case "cheating adversary ablation" `Slow test_cheating_adversary_biases_coin;
    Alcotest.test_case "metrics coherence" `Quick test_metrics_coherence;
    Alcotest.test_case "embedded vs standalone coin" `Slow test_whp_coin_inside_ba_matches_standalone_liveness;
    Alcotest.test_case "scheduler sweep" `Slow test_all_schedulers_all_protocols;
  ]
