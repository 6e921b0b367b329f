(* Measurement phases, metric definitions, result documents and the
   spread-aware compare of the end-to-end agreement benchmark.

   The load is a closed loop with one client: one BA instance at a time
   on one domain, the next starting when the previous returns.  With
   several workloads selected, instances interleave round-robin
   (W1#1, W2#1, ..., W1#2, ...) so machine drift hits every workload
   alike.  Two phases:

   - end to end: [Core.Runner.run_ba] timed from outside, no tracing,
     every instance once in each of several passes;
   - traced: the same instances through {!Mirror}, split by layer.

   Every check failure is collected as a message; a run with any is not
   [correct]. *)

let now_ns = Mirror.now_ns
let seconds_of_ns ns = float_of_int ns *. 1e-9

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------ metrics ------------------------------ *)

type better = Lower | Higher

type meta = { name : string; unit_ : string; better : better }

let better_name = function Lower -> "lower" | Higher -> "higher"

(* Per-instance samples of one workload's end-to-end phase; every
   end-to-end metric is a function of them, so a stored document can be
   re-evaluated and compared without measuring again. *)
type samples = {
  setup : float list;   (* seconds per fresh keyring create + warm *)
  wall : float list;    (* seconds per measured instance: its fastest pass *)
  decided : bool list;  (* every correct process decided, and they agree *)
  alloc : float list;   (* words allocated per instance, mean over its passes *)
  words : float list;   (* correct words per instance *)
  rounds : float list;
}

(* A failed instance counts as never deciding. *)
let decide_times s = List.map2 (fun t ok -> if ok then t else infinity) s.wall s.decided

let decisions s = float_of_int (List.length (List.filter Fun.id s.decided))
let decisions_per_s s = decisions s /. List.fold_left ( +. ) 0.0 s.wall

(* Quartile distance of an estimate's sampling distribution, as a share
   of the estimate.  A nearest-rank p-quantile of N draws sits at a rank
   that is Binomial(N, p); a mean has standard error sd/sqrt N. *)
let z_quartile = 0.6745

let quantile_spread p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = float_of_int (Array.length a) in
  let at r = a.(max 1 (min (Array.length a) (int_of_float (Float.ceil r))) - 1) in
  let sd = sqrt (n *. p *. (1.0 -. p)) in
  (at ((n *. p) +. (z_quartile *. sd)) -. at ((n *. p) -. (z_quartile *. sd))) /. at (n *. p)

let mean_spread xs =
  2.0 *. z_quartile *. Core.Stats.stddev xs
  /. sqrt (float_of_int (List.length xs))
  /. Float.abs (Core.Stats.mean xs)

(* [same_instances]: both sides of a compare measured the same instances
   (same seed, same counts). *)
type e2e_spec = {
  meta : meta;
  value : samples -> float;
  exact : same_instances:bool -> bool;
      (* judged with bound 0: any move is a change *)
  spread : same_instances:bool -> samples -> float;
}

let timing name unit_ better value spread =
  {
    meta = { name; unit_; better };
    value;
    exact = (fun ~same_instances:_ -> false);
    spread = (fun ~same_instances:_ s -> spread s);
  }

(* A mean of per-instance counts: no sampling spread over the same
   instances.  [exact] counts are a function of the instances alone. *)
let count_spec ~exact name unit_ f scale =
  {
    meta = { name; unit_; better = Lower };
    value = (fun s -> Core.Stats.mean (f s) /. scale);
    exact = (fun ~same_instances -> exact && same_instances);
    spread = (fun ~same_instances s -> if same_instances then 0.0 else mean_spread (f s));
  }

let e2e_specs =
  [
    timing "setup_s" "s" Lower
      (fun s -> Core.Stats.percentile 0.5 s.setup)
      (fun s -> quantile_spread 0.5 s.setup);
    timing "decide_s.p50" "s" Lower
      (fun s -> Core.Stats.percentile 0.5 (decide_times s))
      (fun s -> quantile_spread 0.5 (decide_times s));
    timing "decide_s.p75" "s" Lower
      (fun s -> Core.Stats.percentile 0.75 (decide_times s))
      (fun s -> quantile_spread 0.75 (decide_times s));
    timing "decisions_per_s" "1/s" Higher decisions_per_s (fun s -> mean_spread s.wall);
    (* 1 - fail_rate, which reads 0: any instance that fails to decide,
       at any seed, is a regression. *)
    {
      meta = { name = "decided_ratio"; unit_ = "ratio"; better = Higher };
      value = (fun s -> decisions s /. float_of_int (List.length s.decided));
      exact = (fun ~same_instances:_ -> true);
      spread = (fun ~same_instances:_ _ -> 0.0);
    };
    (* Allocation repeats for a seed only in single-workload runs. *)
    count_spec ~exact:false "alloc_mw" "Mwords" (fun s -> s.alloc) 1e6;
    count_spec ~exact:true "words" "words" (fun s -> s.words) 1.0;
    count_spec ~exact:true "rounds" "rounds" (fun s -> s.rounds) 1.0;
  ]

let layer (name, unit_) = { name; unit_; better = Lower }

(* Names shared by all workloads; README.md says which end-to-end metric
   each should move, and on which workload. *)
let layer_specs =
  List.map layer
    [
      ("vrf.crypto_s", "s");
      ("vrf.crypto_share", "ratio");
      ("vrf.prove_us", "us");
      ("vrf.verify_us", "us");
      ("vrf.verify_calls", "count");
      ("vrf.verify_misses", "count");
    ]
  @ [ { name = "vrf.memo_hit_rate"; unit_ = "ratio"; better = Higher } ]
  @ List.map layer
      [
        ("core.sample.committee_ms", "ms");
        ("core.ba.setup_s", "s");
        ("core.ba.handle_calls", "count");
        ("core.ba.handle_s", "s");
        ("core.ba.handle_ns", "ns");
        ("sim.engine.broadcast_calls", "count");
        ("sim.engine.broadcast_s", "s");
        ("sim.engine.deliveries", "count");
        ("sim.engine.self_s", "s");
        ("sim.engine.self_ns", "ns");
        ("obs.observer_s", "s");
        ("obs.observer_alloc_mw", "Mwords");
        ("obs.export_s", "s");
        ("trace.overhead", "ratio");
        ("split.total_s", "s");
        ("split.other_s", "s");
      ]

(* --------------------------- one instance ---------------------------- *)

let same_outcome (a : Core.Runner.outcome) (b : Core.Runner.outcome) =
  let same_result =
    match (a.result, b.result) with
    | Sim.Engine.All_done, Sim.Engine.All_done
    | Sim.Engine.Quiescent, Sim.Engine.Quiescent
    | Sim.Engine.Step_limit, Sim.Engine.Step_limit ->
        true
    | (Sim.Engine.All_done | Sim.Engine.Quiescent | Sim.Engine.Step_limit), _ -> false
  in
  List.equal (fun (p, d) (q, e) -> Int.equal p q && Int.equal d e) a.decisions b.decisions
  && Bool.equal a.all_decided b.all_decided
  && Bool.equal a.agreement b.agreement
  && Int.equal a.rounds b.rounds && Int.equal a.words b.words && Int.equal a.msgs b.msgs
  && Int.equal a.depth b.depth && Int.equal a.steps b.steps && Float.equal a.vtime b.vtime
  && same_result

(* Every correct process decided, and they agree. *)
let decided (o : Core.Runner.outcome) = o.all_decided && o.agreement

type timed = {
  outcome : Core.Runner.outcome;
  total_ns : int;
  export_ns : int;  (* rendering the observers' documents; 0 when unobserved *)
  alloc_words : float;
}

(* One instance, observers created, attached and exported inside the
   timed region when [observed]. *)
let timed_instance ~observed ~params run =
  let a0 = allocated_words () in
  let t0 = now_ns () in
  let obs = if observed then Some (Workload.observers ()) else None in
  let outcome = run (Option.map Workload.attach obs) in
  let t1 = now_ns () in
  (match obs with Some obs -> ignore (Workload.export obs ~params outcome : int) | None -> ());
  let t2 = now_ns () in
  { outcome; total_ns = t2 - t0; export_ns = t2 - t1; alloc_words = allocated_words () -. a0 }

let run_ba (w : Workload.t) ~params ~keyring ~seed ~observed i =
  timed_instance ~observed ~params (fun probe ->
      Core.Runner.run_ba ~scheduler:(Workload.scheduler ()) ?probe
        ~corruption:(Workload.corruption w params) ~keyring ~params ~inputs:(Workload.inputs w i)
        ~seed:(Workload.instance_seed ~seed i) ())

let run_mirror (w : Workload.t) sp ~params ~keyring ~seed ~observed i =
  timed_instance ~observed ~params (fun probe ->
      Mirror.run_ba sp ~scheduler:(Workload.scheduler ()) ?probe
        ~corruption:(Workload.corruption w params) ~keyring ~params ~inputs:(Workload.inputs w i)
        ~seed:(Workload.instance_seed ~seed i) ())

(* Instances 1 .. [count], each over every selected workload. *)
let round_robin ~count f =
  for i = 1 to count do
    f i
  done

type phase_result = {
  attempted : int;
  failed : int;
  metrics : (meta * float) list;
  failures : string list;
}

(* ------------------------- end-to-end phase -------------------------- *)

(* [w.setup_reps] fresh keyrings, each created and warmed on the clock.
   The pass that follows runs on the last one. *)
let setup_keyrings (w : Workload.t) =
  let timed_setup _ =
    let t = now_ns () in
    let kr = Workload.keyring w in
    Vrf.Keyring.warm kr;
    (kr, seconds_of_ns (now_ns () - t))
  in
  let runs = List.init w.setup_reps timed_setup in
  (fst (List.nth runs (w.setup_reps - 1)), List.map snd runs)

(* Instances per workload, and the passes that run each of them once. *)
type counts = { instances : int; passes : int }

type e2e_state = {
  w : Workload.t;
  params : Core.Params.t;
  mutable keyring : Vrf.Keyring.t;  (* the current pass's *)
  mutable setup : float list;
  runs : timed list array;  (* per instance, one run per pass so far *)
  mutable failures : string list;
}

(* An instance's time is its fastest pass: other tenants of a shared
   host slow whole stretches of a run, by up to 1.9x, and a pass that
   falls outside them reads the instance's own cost.  Its counts are
   those of its first pass; the check in [e2e_phase] makes every pass's
   equal. *)
let samples_of st =
  let f g = Array.to_list (Array.map g st.runs) in
  let first rs = (List.hd rs).outcome in
  {
    setup = st.setup;
    wall =
      f (fun rs -> List.fold_left (fun m r -> Float.min m (seconds_of_ns r.total_ns)) infinity rs);
    decided = f (fun rs -> List.for_all (fun r -> decided r.outcome) rs);
    alloc = f (fun rs -> Core.Stats.mean (List.map (fun r -> r.alloc_words) rs));
    words = f (fun rs -> float_of_int (first rs).Core.Runner.words);
    rounds = f (fun rs -> float_of_int (first rs).Core.Runner.rounds);
  }

let e2e_metrics s = List.map (fun spec -> (spec.meta, spec.value s)) e2e_specs

(* Each pass sets up fresh keyrings, so that every run of an instance
   pays for its own VRF proofs and verifications, and then runs every
   instance once.  The passes spread each instance's runs across the
   whole phase. *)
let e2e_phase ~seed ~counts workloads =
  let states =
    List.map
      (fun (w : Workload.t) ->
        let params = Workload.params w in
        let keyring, setup = setup_keyrings w in
        ignore (run_ba w ~params ~keyring ~seed ~observed:w.observed 0 : timed);
        { w; params; keyring; setup; runs = Array.make counts.instances []; failures = [] })
      workloads
  in
  for pass = 1 to counts.passes do
    if pass > 1 then
      List.iter
        (fun st ->
          let keyring, setup = setup_keyrings st.w in
          st.keyring <- keyring;
          st.setup <- st.setup @ setup)
        states;
    (* Measure from a compacted heap, not one shaped by the set-up's
       discarded keyrings. *)
    Gc.compact ();
    round_robin ~count:counts.instances (fun i ->
        List.iter
          (fun st ->
            let r =
              run_ba st.w ~params:st.params ~keyring:st.keyring ~seed ~observed:st.w.observed i
            in
            if not r.outcome.Core.Runner.agreement then
              st.failures <-
                Printf.sprintf "%s instance %d: correct processes disagree" st.w.name i
                :: st.failures;
            st.runs.(i - 1) <- st.runs.(i - 1) @ [ r ])
          states)
  done;
  List.map
    (fun st ->
      Array.iteri
        (fun j rs ->
          if not (List.for_all (fun r -> same_outcome (List.hd rs).outcome r.outcome) rs) then
            st.failures <-
              Printf.sprintf "%s instance %d: its passes ran differently" st.w.name (j + 1)
              :: st.failures)
        st.runs;
      let s = samples_of st in
      let runs = List.concat (Array.to_list st.runs) in
      ( s,
        {
          attempted = List.length runs;
          failed = List.length (List.filter (fun r -> not (decided r.outcome)) runs);
          metrics = e2e_metrics s;
          failures = List.rev st.failures;
        } ))
    states

(* --------------------------- traced phase ----------------------------- *)

(* Unit costs of the crypto layer and of committee sampling, measured
   directly on fresh inputs so no cache serves them. *)
let microbench (w : Workload.t) ~params ~seed keyring =
  let calls = 200 in
  let alpha j = Printf.sprintf "e2e-micro-%d-%d" seed j in
  let signer j = j mod min w.n 8 in
  let t0 = now_ns () in
  let outs = Array.init calls (fun j -> Vrf.Keyring.prove keyring (signer j) (alpha j)) in
  let prove_us = float_of_int (now_ns () - t0) /. 1e3 /. float_of_int calls in
  (* Same keys, verify memo disabled; the signers' keys are generated
     before the clock starts. *)
  let uncached = Workload.keyring ~cache_bound:0 w in
  let valid = ref 0 in
  let verify j =
    if Vrf.Keyring.verify uncached ~signer:(signer j) (alpha j) outs.(j) then incr valid
  in
  for j = 0 to min w.n 8 - 1 do
    verify j
  done;
  valid := 0;
  let t0 = now_ns () in
  for j = 0 to calls - 1 do
    verify j
  done;
  let verify_us = float_of_int (now_ns () - t0) /. 1e3 /. float_of_int calls in
  let committee_ms =
    Core.Stats.percentile 0.5
      (List.init 3 (fun k ->
           let t0 = now_ns () in
           ignore
             (Core.Sample.committee keyring ~s:(Printf.sprintf "e2e-committee-%d-%d" seed k)
                ~lambda:params.Core.Params.lambda
               : int list);
           float_of_int (now_ns () - t0) /. 1e6))
  in
  let failures =
    if !valid = calls then []
    else
      [
        Printf.sprintf "%s: %d of %d fresh VRF proofs failed to verify" w.name (calls - !valid)
          calls;
      ]
  in
  (prove_us, verify_us, committee_ms, failures)

type traced = {
  untraced : timed;
  cold : timed;
  warm : timed;
  warm_spans : Mirror.spans;
  observed : timed;  (* warm replays with and without the observers *)
  plain : timed;
  verify_hits : int;
  verify_misses : int;
}

type traced_state = {
  tw : Workload.t;
  tparams : Core.Params.t;
  traced_kr : Vrf.Keyring.t;     (* cold runs, then their warm replays *)
  untraced_kr : Vrf.Keyring.t;  (* Runner.run_ba on equally cold caches *)
  micro : float * float * float;
  mutable trev : traced list;
  mutable tfailures : string list;
}

(* Instance [i] four times: untraced through [Runner.run_ba] on one
   keyring; through the mirror cold on a second keyring; a warm replay
   on that keyring, whose prove cache and verify memo now hold every
   proof of the instance; and a warm replay with the observers toggled.
   Cache soundness makes all four execution-identical, which is
   checked.  The toggled replay runs on unobserved workloads too: every
   run reports every per-layer metric, and without it the obs.* times
   of those workloads would be a constant 0 rather than a measurement. *)
let traced_instance st ~seed i =
  let w = st.tw and params = st.tparams in
  (* The two timed cold runs start from the same collected heap, so
     neither pays for the garbage of the replays before it. *)
  Gc.full_major ();
  let untraced = run_ba w ~params ~keyring:st.untraced_kr ~seed ~observed:w.observed i in
  let v0 = Vrf.Keyring.verify_cache_stats st.traced_kr in
  Gc.full_major ();
  let cold =
    run_mirror w (Mirror.spans ()) ~params ~keyring:st.traced_kr ~seed ~observed:w.observed i
  in
  let v1 = Vrf.Keyring.verify_cache_stats st.traced_kr in
  let warm_spans = Mirror.spans () in
  let warm = run_mirror w warm_spans ~params ~keyring:st.traced_kr ~seed ~observed:w.observed i in
  let toggled =
    run_mirror w (Mirror.spans ()) ~params ~keyring:st.traced_kr ~seed ~observed:(not w.observed) i
  in
  let check what a b =
    if not (same_outcome a.outcome b.outcome) then
      st.tfailures <- Printf.sprintf "%s instance %d: %s" w.name i what :: st.tfailures
  in
  check "the mirror's outcome differs from Runner.run_ba's" untraced cold;
  check "the warm replay differs from the cold run" cold warm;
  check "attaching observers changed the run" warm toggled;
  let observed, plain = if w.observed then (warm, toggled) else (toggled, warm) in
  {
    untraced;
    cold;
    warm;
    warm_spans;
    observed;
    plain;
    verify_hits = v1.Vrf.Keyring.hits - v0.Vrf.Keyring.hits;
    verify_misses = v1.Vrf.Keyring.misses - v0.Vrf.Keyring.misses;
  }

(* Means over the traced instances.  The additive split of the cold
   traced total (split.total_s) is vrf.crypto_s (cold minus warm) +
   core.ba.setup_s + core.ba.handle_s + sim.engine.broadcast_s +
   sim.engine.self_s + obs.export_s (observed workloads only) +
   split.other_s, with every term but the first taken from the warm
   replay, where crypto costs only cache lookups. *)
let layer_metrics st =
  let ts = List.rev st.trev in
  let k = float_of_int (List.length ts) in
  let sum f = List.fold_left (fun acc t -> acc +. f t) 0.0 ts in
  let sum_ns f = sum (fun t -> float_of_int (f t)) *. 1e-9 in
  let mean f = sum f /. k in
  let warm f = mean (fun t -> f t.warm_spans) in
  let prove_us, verify_us, committee_ms = st.micro in
  let cold = sum_ns (fun t -> t.cold.total_ns) in
  let crypto = sum_ns (fun t -> t.cold.total_ns - t.warm.total_ns) in
  let own_export t = if st.tw.observed then t.warm.export_ns else 0 in
  let verify_calls = sum (fun t -> float_of_int (t.verify_hits + t.verify_misses)) in
  let deliveries = sum (fun t -> float_of_int t.warm.outcome.Core.Runner.steps) in
  let values =
    [
      ("vrf.crypto_s", crypto /. k);
      ("vrf.crypto_share", crypto /. cold);
      ("vrf.prove_us", prove_us);
      ("vrf.verify_us", verify_us);
      ("vrf.verify_calls", verify_calls /. k);
      ("vrf.verify_misses", mean (fun t -> float_of_int t.verify_misses));
      ("vrf.memo_hit_rate", sum (fun t -> float_of_int t.verify_hits) /. verify_calls);
      ("core.sample.committee_ms", committee_ms);
      ("core.ba.setup_s", warm (fun s -> float_of_int s.Mirror.setup_ns) *. 1e-9);
      ("core.ba.handle_calls", warm (fun s -> float_of_int s.Mirror.handle_calls));
      ("core.ba.handle_s", warm Mirror.step_ns *. 1e-9);
      ("core.ba.handle_ns", warm Mirror.handle_ns_per_call);
      ("sim.engine.broadcast_calls", warm (fun s -> float_of_int s.Mirror.bcast_calls));
      ("sim.engine.broadcast_s", warm (fun s -> float_of_int s.Mirror.bcast_ns) *. 1e-9);
      ("sim.engine.deliveries", deliveries /. k);
      ("sim.engine.self_s", warm Mirror.engine_self_ns *. 1e-9);
      ("sim.engine.self_ns", sum (fun t -> Mirror.engine_self_ns t.warm_spans) /. deliveries);
      ( "obs.observer_s",
        sum_ns (fun t -> t.observed.total_ns - t.observed.export_ns - t.plain.total_ns) /. k );
      ( "obs.observer_alloc_mw",
        mean (fun t -> t.observed.alloc_words -. t.plain.alloc_words) /. 1e6 );
      ("obs.export_s", sum_ns (fun t -> t.observed.export_ns) /. k);
      ("trace.overhead", (cold /. sum_ns (fun t -> t.untraced.total_ns)) -. 1.0);
      ("split.total_s", cold /. k);
      ( "split.other_s",
        mean (fun t ->
            let s = t.warm_spans in
            float_of_int (t.warm.total_ns - s.Mirror.setup_ns - s.Mirror.bcast_ns - own_export t)
            -. Mirror.step_ns s -. Mirror.engine_self_ns s)
        *. 1e-9 );
    ]
  in
  List.map (fun (name, v) -> (List.find (fun m -> String.equal m.name name) layer_specs, v)) values

let traced_phase ~seed ~count workloads =
  let states =
    List.map
      (fun (w : Workload.t) ->
        let tparams = Workload.params w in
        let fresh () =
          let kr = Workload.keyring w in
          Vrf.Keyring.warm kr;
          kr
        in
        let traced_kr = fresh () and untraced_kr = fresh () in
        let prove_us, verify_us, committee_ms, failures =
          microbench w ~params:tparams ~seed traced_kr
        in
        let st =
          {
            tw = w;
            tparams;
            traced_kr;
            untraced_kr;
            micro = (prove_us, verify_us, committee_ms);
            trev = [];
            tfailures = List.rev failures;
          }
        in
        ignore (traced_instance st ~seed 0 : traced);
        st)
      workloads
  in
  Gc.compact ();
  round_robin ~count (fun i ->
      List.iter (fun st -> st.trev <- traced_instance st ~seed i :: st.trev) states);
  List.map
    (fun st ->
      {
        attempted = List.length st.trev;
        failed = List.length (List.filter (fun t -> not (decided t.cold.outcome)) st.trev);
        metrics = layer_metrics st;
        failures = List.rev st.tfailures;
      })
    states

(* ------------------------- BENCHMARK.json ----------------------------- *)

type declared = {
  workload_names : string list;
  end_to_end : (meta * float) list;  (* with its regression bound *)
  per_layer : meta list;
}

let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  | exception Sys_error e -> Error e

let load_json path = Result.bind (read_file path) Obs.Json.of_string

let load_declared path =
  let ( let* ) = Result.bind in
  let* doc = load_json path in
  let str k j = Option.bind (Obs.Json.member k j) Obs.Json.to_string_opt in
  let meta j =
    match (str "name" j, str "unit" j, str "better" j) with
    | Some name, Some unit_, Some ("lower" | "higher" as b) ->
        Ok { name; unit_; better = (if String.equal b "lower" then Lower else Higher) }
    | _ -> Error (path ^ ": metric entry without name/unit/better")
  in
  let list k = Obs.Json.to_list (Option.value (Obs.Json.member k doc) ~default:Obs.Json.Null) in
  let all_ok f xs =
    List.fold_right
      (fun x acc -> Result.bind acc (fun l -> Result.map (fun y -> y :: l) (f x)))
      xs (Ok [])
  in
  let* end_to_end =
    all_ok
      (fun j ->
        let* m = meta j in
        match Option.bind (Obs.Json.member "bound" j) Obs.Json.to_float_opt with
        | Some b -> Ok (m, b)
        | None -> Error (path ^ ": end_to_end entry without a bound"))
      (list "end_to_end")
  in
  let* per_layer = all_ok meta (list "per_layer") in
  Ok { workload_names = List.filter_map (str "name") (list "workloads"); end_to_end; per_layer }

(* ---------------------------- documents ------------------------------- *)

let schema = "coincidence.e2e/1"

type workload_result = {
  workload : Workload.t;
  samples : samples option;  (* end-to-end phase *)
  e2e : phase_result option;
  traced : phase_result option;
}

let metric_json (m, v) =
  (m.name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str m.unit_) ])
let floats xs = Obs.Json.List (List.map (fun x -> Obs.Json.Float x) xs)

let samples_json (s : samples) =
  Obs.Json.Obj
    [
      ("setup_s", floats s.setup);
      ("wall_s", floats s.wall);
      ("decided", Obs.Json.List (List.map (fun b -> Obs.Json.Bool b) s.decided));
      ("alloc_words", floats s.alloc);
      ("words", floats s.words);
      ("rounds", floats s.rounds);
    ]

let samples_of_json j =
  let field k = Obs.Json.to_list (Option.value (Obs.Json.member k j) ~default:Obs.Json.Null) in
  let fl k = List.filter_map Obs.Json.to_float_opt (field k) in
  let decided =
    List.filter_map (function Obs.Json.Bool b -> Some b | _ -> None) (field "decided")
  in
  let s =
    {
      setup = fl "setup_s";
      wall = fl "wall_s";
      decided;
      alloc = fl "alloc_words";
      words = fl "words";
      rounds = fl "rounds";
    }
  in
  let n = List.length s.wall in
  let complete l = Int.equal (List.length l) n in
  if n > 0 && (not (List.is_empty s.setup)) && List.for_all complete [ s.alloc; s.words; s.rounds ]
     && complete decided
  then Some s
  else None

(* Both phases as selected, each over all [workloads]: [e2e] and
   [traced] are their counts per workload. *)
let run ~seed ?e2e ?traced workloads =
  let e2e = Option.map (fun counts -> e2e_phase ~seed ~counts workloads) e2e in
  let traced = Option.map (fun count -> traced_phase ~seed ~count workloads) traced in
  let nth l i = Option.map (fun l -> List.nth l i) l in
  List.mapi
    (fun i workload ->
      let e = nth e2e i in
      { workload; samples = Option.map fst e; e2e = Option.map snd e; traced = nth traced i })
    workloads

let phases r = List.filter_map Fun.id [ r.e2e; r.traced ]

(* The workloads, and the names, units and directions of every metric
   emitted, must be exactly those BENCHMARK.json declares. *)
let check_declared (d : declared) results =
  let show m = Printf.sprintf "%s [%s, %s]" m.name m.unit_ (better_name m.better) in
  let same what declared emitted =
    let sort l = List.sort_uniq String.compare l in
    if List.equal String.equal (sort declared) (sort emitted) then []
    else
      [
        Printf.sprintf "BENCHMARK.json %s {%s} differ from the emitted {%s}" what
          (String.concat ", " (sort declared)) (String.concat ", " (sort emitted));
      ]
  in
  let emitted declared phase =
    List.concat_map
      (fun r ->
        match phase r with
        | Some p ->
            same (r.workload.name ^ " metrics") (List.map show declared)
              (List.map (fun (m, _) -> show m) p.metrics)
        | None -> [])
      results
  in
  same "workloads" d.workload_names (List.map (fun (w : Workload.t) -> w.name) Workload.all)
  @ emitted (List.map fst d.end_to_end) (fun r -> r.e2e)
  @ emitted d.per_layer (fun r -> r.traced)

(* Every check that failed in a run: the declarations, then each phase's
   own checks. *)
let failures d results =
  check_declared d results
  @ List.concat_map
      (fun r -> List.concat_map (fun (p : phase_result) -> p.failures) (phases r))
      results

let workload_json r =
  let w = r.workload in
  let counts (p : phase_result) extra =
    Obs.Json.Obj
      ([ ("attempted", Obs.Json.Int p.attempted); ("failed", Obs.Json.Int p.failed) ] @ extra)
  in
  let opt key f = function Some x -> [ (key, f x) ] | None -> [] in
  let fail_rate (p : phase_result) = float_of_int p.failed /. float_of_int p.attempted in
  Obs.Json.Obj
    ([
       ("name", Obs.Json.Str w.name);
       ( "config",
         Obs.Json.Obj
           [
             ("backend", Obs.Json.Str (Workload.backend_name w));
             ("n", Obs.Json.Int w.n);
             ("lambda", Obs.Json.Int w.lambda);
             ("faults", Obs.Json.Str (Workload.fault_name w));
             ("observed", Obs.Json.Bool w.observed);
           ] );
     ]
    @ opt "e2e" (fun p -> counts p [ ("fail_rate", Obs.Json.Float (fail_rate p)) ]) r.e2e
    @ opt "traced" (fun p -> counts p []) r.traced
    @ opt "samples" samples_json r.samples
    @ [
        ( "metrics",
          Obs.Json.Obj
            (List.concat_map (fun (p : phase_result) -> List.map metric_json p.metrics) (phases r))
        );
      ])

let document ~provenance ~failures results =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str schema);
      ("provenance", Obs.Json.Obj provenance);
      ("correct", Obs.Json.Bool (List.is_empty failures));
      ("failures", Obs.Json.List (List.map (fun s -> Obs.Json.Str s) failures));
      ("workloads", Obs.Json.List (List.map workload_json results));
    ]

(* ----------------------------- compare -------------------------------- *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type row = {
  row_workload : string;
  row_metric : string;
  old_value : float;
  new_value : float;
  old_spread : float;
  new_spread : float;
  bound : float;  (* 0 for a metric judged exactly *)
  verdict : verdict;
}

(* A pair is unresolved when either side's estimate is less certain than
   the bound it is judged by; otherwise it moved beyond the bound in one
   direction, or it is the same.  With bound 0, any move is a verdict. *)
let judge ~better ~bound ~old_value ~new_value ~old_spread ~new_spread =
  if Float.equal old_value new_value then Same
  else if old_spread > bound || new_spread > bound then Unresolved
  else
    let change = (new_value -. old_value) /. Float.abs old_value in
    let worse_by = match better with Lower -> change | Higher -> -.change in
    if worse_by > bound then Worse else if worse_by < -.bound then Better else Same

let field path doc =
  List.fold_left (fun j k -> Option.bind j (Obs.Json.member k)) (Some doc) path

let doc_samples doc =
  List.filter_map
    (fun w ->
      match (Option.bind (field [ "name" ] w) Obs.Json.to_string_opt, field [ "samples" ] w) with
      | Some name, Some s -> Option.map (fun s -> (name, s)) (samples_of_json s)
      | _ -> None)
    (Obs.Json.to_list (Option.value (field [ "workloads" ] doc) ~default:Obs.Json.Null))

let compare_row (d : declared) ~same_instances name os ns spec =
  Option.map
    (fun (_, declared_bound) ->
      let exact = spec.exact ~same_instances in
      let bound = if exact then 0.0 else declared_bound in
      let spread s = if exact then 0.0 else spec.spread ~same_instances s in
      let old_value = spec.value os and new_value = spec.value ns in
      let old_spread = spread os and new_spread = spread ns in
      {
        row_workload = name;
        row_metric = spec.meta.name;
        old_value;
        new_value;
        old_spread;
        new_spread;
        bound;
        verdict =
          judge ~better:spec.meta.better ~bound ~old_value ~new_value ~old_spread ~new_spread;
      })
    (List.find_opt (fun (m, _) -> String.equal m.name spec.meta.name) d.end_to_end)

(* One row per (workload, end-to-end metric) present in both documents.
   Documents of the same seed and instance count measured the same
   instances, so their counts repeat exactly. *)
let compare_docs (d : declared) old_doc new_doc =
  let str path doc = Option.bind (field path doc) Obs.Json.to_string_opt in
  let is_e2e doc = Option.equal String.equal (str [ "schema" ] doc) (Some schema) in
  if not (is_e2e old_doc && is_e2e new_doc) then
    Error (Printf.sprintf "both documents must carry schema %S" schema)
  else
    let seed doc = Option.bind (field [ "provenance"; "seed" ] doc) Obs.Json.to_int_opt in
    let same_seed = Option.equal Int.equal (seed old_doc) (seed new_doc) in
    let news = doc_samples new_doc in
    let rows =
      List.concat_map
        (fun (name, os) ->
          match List.find_opt (fun (n, _) -> String.equal n name) news with
          | Some (_, ns) ->
              let same_instances =
                same_seed && Int.equal (List.length os.wall) (List.length ns.wall)
              in
              List.filter_map (compare_row d ~same_instances name os ns) e2e_specs
          | None -> [])
        (doc_samples old_doc)
    in
    if List.is_empty rows then Error "the documents share no workload with end-to-end samples"
    else Ok rows
