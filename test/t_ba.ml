(* Algorithm 4 (Byzantine Agreement WHP): validity, agreement, termination
   across inputs, schedulers, corruption modes, seeds. *)

open Core

let n = 48
let params = lazy (Tutil.robust_params n)
let keyring = lazy (Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"ba-test" ())

let run ?scheduler ?corruption ~inputs ~seed () =
  Runner.run_ba ?scheduler ?corruption ~keyring:(Lazy.force keyring) ~params:(Lazy.force params)
    ~inputs ~seed ()

let check_safety name (o : Runner.outcome) =
  Alcotest.(check bool) (name ^ ": all decided") true o.Runner.all_decided;
  Alcotest.(check bool) (name ^ ": agreement") true o.Runner.agreement

let test_validity_all_ones () =
  let o = run ~inputs:(Array.make n 1) ~seed:1 () in
  check_safety "ones" o;
  List.iter (fun (_, d) -> Alcotest.(check int) "validity: decide 1" 1 d) o.Runner.decisions;
  Alcotest.(check int) "one round suffices" 1 o.Runner.rounds

let test_validity_all_zeros () =
  let o = run ~inputs:(Array.make n 0) ~seed:2 () in
  check_safety "zeros" o;
  List.iter (fun (_, d) -> Alcotest.(check int) "validity: decide 0" 0 d) o.Runner.decisions

let test_mixed_inputs () =
  for seed = 1 to 8 do
    let inputs = Array.init n (fun i -> (i + seed) mod 2) in
    let o = run ~inputs ~seed:(seed * 17) () in
    check_safety (Printf.sprintf "mixed seed %d" seed) o;
    (* The decision must be 0 or 1. *)
    List.iter (fun (_, d) -> Alcotest.(check bool) "binary" true (d = 0 || d = 1)) o.Runner.decisions
  done

let test_one_dissenter () =
  let inputs = Array.make n 1 in
  inputs.(7) <- 0;
  let o = run ~inputs ~seed:5 () in
  check_safety "dissenter" o

let test_crash_faults () =
  let p = Lazy.force params in
  for seed = 1 to 5 do
    let inputs = Array.init n (fun i -> i mod 2) in
    let o = run ~corruption:(Runner.Crash_random p.Params.f) ~inputs ~seed:(seed * 23) () in
    check_safety (Printf.sprintf "crash seed %d" seed) o
  done

let test_adaptive_crash () =
  let p = Lazy.force params in
  let inputs = Array.init n (fun i -> i mod 2) in
  let o = run ~corruption:(Runner.Crash_adaptive_first p.Params.f) ~inputs ~seed:6 () in
  check_safety "adaptive crash" o

let test_byz_silent () =
  let p = Lazy.force params in
  let inputs = Array.init n (fun i -> i mod 2) in
  let o = run ~corruption:(Runner.Byz_silent_random p.Params.f) ~inputs ~seed:7 () in
  check_safety "byz silent" o

let test_split_scheduler () =
  let sched = Sim.Scheduler.split ~group:(fun pid -> pid < n / 2) ~cross_delay:25.0 () in
  let inputs = Array.init n (fun i -> if i < n / 2 then 0 else 1) in
  let o = run ~scheduler:sched ~inputs ~seed:8 () in
  check_safety "split" o

let test_targeted_scheduler () =
  let sched = Sim.Scheduler.targeted ~victims:(fun pid -> pid < 10) ~factor:40.0 () in
  let inputs = Array.init n (fun i -> i mod 2) in
  let o = run ~scheduler:sched ~inputs ~seed:9 () in
  check_safety "targeted" o

let test_eventual_sync_scheduler () =
  (* Safe during the chaotic pre-GST phase, decides after. *)
  let inputs = Array.init n (fun i -> i mod 2) in
  let o = run ~scheduler:(Sim.Scheduler.eventual_sync ~gst:30.0 ()) ~inputs ~seed:21 () in
  check_safety "eventual-sync" o

let test_fifo_scheduler () =
  let inputs = Array.init n (fun i -> i mod 2) in
  let o = run ~scheduler:(Sim.Scheduler.fifo ()) ~inputs ~seed:10 () in
  check_safety "fifo" o

let test_rounds_constant () =
  (* O(1) expected rounds: over seeds, decisions should come within a few
     rounds. *)
  let max_rounds = ref 0 in
  for seed = 30 to 39 do
    let inputs = Array.init n (fun i -> i mod 2) in
    let o = run ~inputs ~seed () in
    if o.Runner.rounds > !max_rounds then max_rounds := o.Runner.rounds
  done;
  Alcotest.(check bool) (Printf.sprintf "max rounds %d small" !max_rounds) true (!max_rounds <= 6)

let test_determinism () =
  let inputs = Array.init n (fun i -> i mod 2) in
  let a = run ~inputs ~seed:11 () and b = run ~inputs ~seed:11 () in
  Alcotest.(check bool) "same decisions" true (a.Runner.decisions = b.Runner.decisions);
  Alcotest.(check int) "same words" a.Runner.words b.Runner.words

let test_input_validation () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let ba = Ba.create ~keyring:kr ~params:p ~pid:0 ~instance:"check" () in
  Alcotest.check_raises "non-binary input" (Invalid_argument "Ba.propose: input must be binary")
    (fun () -> ignore (Ba.propose ba 7))

let test_decide_action_emitted_once () =
  (* Track Decide actions through a full run at small scale: each correct
     process must emit exactly one. *)
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let eng : Ba.msg Sim.Engine.t = Sim.Engine.create ~n ~seed:99 () in
  let decides = Array.make n 0 in
  let procs = Array.init n (fun pid -> Ba.create ~keyring:kr ~params:p ~pid ~instance:"once" ()) in
  let perform pid acts =
    List.iter
      (function
        | Ba.Broadcast m -> Sim.Engine.broadcast eng ~src:pid ~words:(Ba.words_of_msg m) m
        | Ba.Decide _ -> decides.(pid) <- decides.(pid) + 1)
      acts
  in
  Array.iteri
    (fun pid pr ->
      Sim.Engine.set_handler eng pid (fun e ->
          perform pid (Ba.handle pr ~src:e.Sim.Envelope.src e.Sim.Envelope.payload)))
    procs;
  Array.iteri (fun pid pr -> perform pid (Ba.propose pr (pid mod 2))) procs;
  ignore
    (Sim.Engine.run eng ~until:(fun () -> Array.for_all (fun p -> Ba.decision p <> None) procs));
  Array.iteri
    (fun pid c -> Alcotest.(check int) (Printf.sprintf "pid %d decides once" pid) 1 c)
    decides

let test_word_complexity_reasonable () =
  (* Words should be well below the all-to-all MMR-style cost at this n.
     (The real scaling comparison is bench E2; here just a sanity bound.) *)
  let inputs = Array.init n (fun i -> i mod 2) in
  let o = run ~inputs ~seed:12 () in
  Alcotest.(check bool) "non-trivial" true (o.Runner.words > 0);
  (* Per round: 2 approvers (4 committees of <= n senders, OK messages of
     ~4W words) + 1 coin.  A generous envelope is 12*W*n*n per round; the
     point is catching runaway resends, not asymptotics (that's bench E2). *)
  let p = Lazy.force params in
  Alcotest.(check bool) "bounded" true
    (o.Runner.words < 12 * p.Params.w * n * n * (o.Runner.rounds + 1))

let test_rsa_backend_small () =
  (* End-to-end with the real VRF at small scale. *)
  let n = 16 in
  let kr = Vrf.Keyring.create ~backend:(Vrf.Rsa_fdh { bits = 256 }) ~n ~seed:"ba-rsa" () in
  let p = Params.make_exn ~strict:false ~lambda:12 ~n () in
  let o = Runner.run_ba ~keyring:kr ~params:p ~inputs:(Array.make n 1) ~seed:13 () in
  Alcotest.(check bool) "all decided" true o.Runner.all_decided;
  Alcotest.(check bool) "agreement" true o.Runner.agreement;
  List.iter (fun (_, d) -> Alcotest.(check int) "validity" 1 d) o.Runner.decisions

let qcheck_safety_random =
  QCheck.Test.make ~name:"qcheck: BA safety across random seeds/inputs" ~count:10
    QCheck.(pair small_int (int_range 0 (n - 1)))
    (fun (seed, ones) ->
      let inputs = Array.init n (fun i -> if i < ones then 1 else 0) in
      let o = run ~inputs ~seed:(seed + 5000) () in
      o.Runner.all_decided && o.Runner.agreement
      &&
      (* validity: if unanimous input, decision must match *)
      match List.sort_uniq compare (Array.to_list inputs) with
      | [ v ] -> List.for_all (fun (_, d) -> d = v) o.Runner.decisions
      | _ -> true)

(* The observers [ba --emit-*] and [complexity] attach — metrics bridge,
   event trace and word ledger — and the four documents they render:
   ledger, metrics, events JSONL and Chrome trace. *)
let run_observed ~params ~n run =
  let metrics = Obs.Metrics.create ()
  and trace = Sim.Trace.create ()
  and ledger = Sim.Ledger.create () in
  let o =
    run (fun eng ->
        Instrument.attach_ba eng ~metrics;
        Sim.Trace.attach trace eng;
        Instrument.attach_ba_ledger eng ledger)
  in
  let docs =
    [
      ("ledger", Obs.Json.to_string (Instrument.ledger_json ~protocol:"whp-ba" ~n ledger));
      ( "metrics document",
        Obs.Json.to_string
          (Instrument.metrics_doc ~params ~outcomes:[ Instrument.outcome_json o ] ~metrics ()) );
      ("events JSONL", Obs.Export.jsonl_to_string (Obs.Export.trace_jsonl trace));
      ( "Chrome trace",
        Obs.Export.chrome_to_string (Obs.Export.chrome_of_trace trace) );
    ]
  in
  (o, docs)

let outcome_line (o : Runner.outcome) =
  Printf.sprintf "%d [%s] %b %b %d %d %d %d %h %d %s" o.Runner.n
    (String.concat ";" (List.map (fun (p, d) -> Printf.sprintf "%d:%d" p d) o.Runner.decisions))
    o.Runner.all_decided o.Runner.agreement o.Runner.rounds o.Runner.words o.Runner.msgs
    o.Runner.depth o.Runner.vtime o.Runner.steps
    (match o.Runner.result with
    | Sim.Engine.All_done -> "all-done"
    | Quiescent -> "quiescent"
    | Step_limit -> "step-limit")

let test_eager_lazy_ledger_identical () =
  (* Protocol-level runs must stay byte-identical to the engine that
     enqueued every broadcast destination individually (eager expansion,
     retired since): the outcome record (decisions, words, depth, vtime,
     run result) and the exported documents — ledger, metrics, events and
     Chrome trace — digested at several n on fixed seeds.  Eager runs
     reported one send call per envelope, broadcast records one per
     broadcast; the documents must not tell them apart.  The adaptive
     runs crash the first f senders through the send hook, which cuts
     their broadcasts after destination 0.  The step cap bounds the
     n = 256 instance; equivalence over a capped prefix is just as
     binding. *)
  List.iter
    (fun (n, adaptive, expected) ->
      let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"equiv" () in
      let params = Tutil.robust_params n in
      let inputs = Array.init n (fun i -> i mod 2) in
      let corruption =
        if adaptive then Runner.Crash_adaptive_first params.Params.f else Runner.Honest
      in
      let o, docs =
        run_observed ~params ~n (fun probe ->
            Runner.run_ba ~probe ~corruption ~max_steps:150_000 ~keyring:kr ~params ~inputs
              ~seed:(1000 + n) ())
      in
      List.iter2
        (fun (what, doc) digest ->
          Alcotest.(check string)
            (Printf.sprintf "%s at n=%d%s" what n (if adaptive then " (adaptive)" else ""))
            digest
            (Crypto.Hex.encode (Crypto.Sha256.digest doc)))
        (("outcome", outcome_line o) :: docs)
        expected)
    [
      ( 16, false,
        [
          "4b84837d5649291311856689308246ab71f235110ce49ae053d83547eb45c6e7";
          "aef180d74efefb0eafc5380acb40169f54e8837a55da4a327c8cac665479fff8";
          "27acd331331b6c821820cf7d73990b9c5a68f60fca229c9338b19b418a951107";
          "451e71a3527adf5e0278b81ce2e6e4c5c8435a8faa39c92612d08eb0305f33c3";
          "3a022965feebb4c05da1aa559483614c8a4ab8ed7b6667fcd1239a251a0b083f";
        ] );
      ( 64, false,
        [
          "aa4686e026cf883250bdac686e525bab5805eb19e3c200dd58e384540971a928";
          "a563022f4a039c782c4a22d2c5e085fdf9cad9c4870f01e62f084a413dc83c07";
          "9f21713515fb0a279d03149dfe0e0612b5f5271edf2f78a80e44b13b722c47d3";
          "29f71fcab4e025b5bcdbe9be8550c1f298410590e7c7f20a60bcb17e57818ce0";
          "bef397bd5a888831a2f8e05bce1f8783cd711b3e8c572121778e9580cc42104b";
        ] );
      ( 256, false,
        [
          "912b9fa429d3fe2b7cd875d8ec4f76668dc3122172203fedd24ff321116ba79c";
          "4d52e72ea32e45ee81315261c34a8926bb1bea466f1ce285e70dd58be2259fbc";
          "dfd01c5d97c1e406ab90e98aa75faca9779e30ac6e6efa55ce85462d491175a4";
          "13006d2ef5187ddadc4872e21af46478585b83f6a966f7659b3833b173b1165f";
          "212e1421ad557733facc4ce33c4c480658735d51a5da8a58623527a85250fe56";
        ] );
      ( 16, true,
        [
          "4d6a0e4bae800251faca76fc21c1618ec6a83caf845cd12aa3810d1ac052e58c";
          "57937523dc4a891bd4588dbdf202929681c03dd904adf97ba6f469ca61e81261";
          "2f5f4a6e914cd4f37ff06b9c6719a21f592cd5e244ec329e0a756b4f87962174";
          "020745c2c6b92099abe9a1a040ee4cfdde221294dba024fe24bd80e358ca71ec";
          "01e830ff3bde7e943ac501d04c766976614bba9de27d60dc1b3fd0bfe77b1199";
        ] );
      ( 64, true,
        [
          "598b98b8fd42495b36d9bb92e8f4d9638cce682fe3ce150aa1a1b340b8257458";
          "acba94edebbe9797a7a750876da7bf2598ab304c3d408ed42f138476014d68d3";
          "ddb03fcbfa01c880ee7e26ab6e8e98fd56882ea351d7edbe5cde4a799104e8c6";
          "9a1b9b81dfa0ed5dd2c7a64b741b53915b496c81c1a5387042e9caafa9f8e49e";
          "a28feccb08f8d7364fe486fcc8299c4d06ddcf32e629abdd10de909f2697f463";
        ] );
    ]

(* Watching must not change the run, with or without the adaptive
   adversary's send hook. *)
let test_observers_keep_the_run () =
  let n = 64 in
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"watch" () in
  let params = Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n () in
  let inputs = Array.init n (fun i -> i mod 2) in
  List.iter
    (fun (name, corruption) ->
      let run probe = Runner.run_ba ?probe ~corruption ~keyring:kr ~params ~inputs ~seed:5 () in
      let plain = run None in
      let watched, _ = run_observed ~params ~n (fun probe -> run (Some probe)) in
      Alcotest.(check bool) (name ^ ": outcome identical with observers") true (plain = watched))
    [ ("honest", Runner.Honest); ("adaptive", Runner.Crash_adaptive_first params.Params.f) ]

(* What a warm, unobserved run allocates per delivery at n = 64 with
   partial committees (lambda = 48, W = 38), the keyring's caches filled
   by a first run.  It reads 31.5 words per delivery with the exact
   counter (30.8 with the minor term of [Gc.counters]).  It read 68.6 before
   the validation memos were indexed by committee rank, with memo keys
   built and hashed per delivery, echo evidence consed per ECHO, closures
   in the step wrappers and a boxed float per comparison in the delivery
   sort.  The bound leaves room for another compiler or runtime. *)
let test_allocation_per_delivery () =
  let n = 64 in
  let params = Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:48 ~n () in
  let keyring = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"ba-alloc" () in
  let inputs = Array.init n (fun i -> i mod 2) in
  let run () = Runner.run_ba ~keyring ~params ~inputs ~seed:5 () in
  ignore (run () : Runner.outcome);
  let w0 = Tutil.allocated_words () in
  let o = run () in
  let per_delivery = (Tutil.allocated_words () -. w0) /. float_of_int o.Runner.steps in
  check_safety "alloc run" o;
  if per_delivery > 45.0 then
    Alcotest.failf "a run allocates %.1f words per delivery (bound 45)" per_delivery

(* Distinct VRF evaluations per instance at the benchmark's toy size
   (n = 16, lambda = n, unanimous inputs, engine seeds 1001 and 1002 as
   e2e's first two instances at --seed 1).  A committee costs n
   evaluations the first time a delivery or a step of its phase consults
   it, and each FIRST member adds its coin value, so a committee built
   for a phase no message reaches shows here as 16 more. *)
let test_vrf_evaluations () =
  let n = 16 in
  let params = Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n () in
  let f = params.Params.f in
  List.iter
    (fun (name, corruption, seed, expected) ->
      let keyring = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"ba-vrf-count" () in
      let o =
        Runner.run_ba ~scheduler:(Sim.Scheduler.random ~mean:1.0 ()) ~corruption ~keyring ~params
          ~inputs:(Array.make n (seed mod 2)) ~seed ()
      in
      check_safety name o;
      Alcotest.(check int)
        (Printf.sprintf "%s, seed %d: VRF evaluations" name seed)
        expected (Vrf.Keyring.evaluations keyring))
    [
      ("honest", Runner.Honest, 1001, 192);
      ("honest", Runner.Honest, 1002, 177);
      ("crash", Runner.Crash_random f, 1001, 191);
      ("crash", Runner.Crash_random f, 1002, 175);
      ("adaptive", Runner.Crash_adaptive_first f, 1001, 191);
      ("adaptive", Runner.Crash_adaptive_first f, 1002, 175);
    ]

(* A message naming a round below 0 is dropped before any round state
   exists: no approver, no coin, no committee.  An A1 INIT that reached
   a round state would resolve that round's INIT committee, n VRF
   evaluations. *)
let test_negative_rounds_leave_no_state () =
  let n = 16 in
  let params = Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n () in
  let keyring = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"ba-negative" () in
  let t = Ba.create ~keyring ~params ~pid:0 ~instance:"neg" () in
  ignore (Ba.propose t 1 : Ba.action list);
  let src = 1 in
  let cert = Sample.sample keyring ~pid:src ~s:"neg/r0/a1/init" ~lambda:n in
  let evaluations = Vrf.Keyring.evaluations keyring in
  for r = 1 to 100 do
    let msg = Ba.A1 { round = -r; inner = Approver.Init { v = 0; cert } } in
    Alcotest.(check bool) (Printf.sprintf "A1 INIT in round %d dropped" (-r)) true
      (Ba.handle t ~src msg = [])
  done;
  Alcotest.(check int) "no VRF evaluation" evaluations (Vrf.Keyring.evaluations keyring)

let suite =
  [
    Alcotest.test_case "validity ones" `Quick test_validity_all_ones;
    Alcotest.test_case "eager/lazy ledger identical" `Quick test_eager_lazy_ledger_identical;
    Alcotest.test_case "observers keep the run" `Quick test_observers_keep_the_run;
    Alcotest.test_case "validity zeros" `Quick test_validity_all_zeros;
    Alcotest.test_case "mixed inputs" `Slow test_mixed_inputs;
    Alcotest.test_case "one dissenter" `Quick test_one_dissenter;
    Alcotest.test_case "crash faults" `Slow test_crash_faults;
    Alcotest.test_case "adaptive crash" `Quick test_adaptive_crash;
    Alcotest.test_case "byz silent" `Quick test_byz_silent;
    Alcotest.test_case "split scheduler" `Quick test_split_scheduler;
    Alcotest.test_case "targeted scheduler" `Quick test_targeted_scheduler;
    Alcotest.test_case "fifo scheduler" `Quick test_fifo_scheduler;
    Alcotest.test_case "eventual-sync scheduler" `Quick test_eventual_sync_scheduler;
    Alcotest.test_case "rounds constant" `Slow test_rounds_constant;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "input validation" `Quick test_input_validation;
    Alcotest.test_case "decide emitted once" `Quick test_decide_action_emitted_once;
    Alcotest.test_case "word complexity sane" `Quick test_word_complexity_reasonable;
    Alcotest.test_case "allocation per delivery" `Quick test_allocation_per_delivery;
    Alcotest.test_case "VRF evaluations per instance" `Quick test_vrf_evaluations;
    Alcotest.test_case "negative rounds leave no state" `Quick test_negative_rounds_leave_no_state;
    Alcotest.test_case "rsa backend small" `Slow test_rsa_backend_small;
    QCheck_alcotest.to_alcotest qcheck_safety_random;
  ]
