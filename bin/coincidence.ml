(* Command-line interface to the library.

   coincidence params    -- inspect the parameter windows for an n, with
                            the Lemma 4.8 and B.7 coin bounds
   coincidence ba        -- run Byzantine Agreement instances
   coincidence estimate  -- statistical campaigns (coin / whp-coin /
                            committee / ba), optionally domain-parallel
   coincidence committee -- sample and inspect committees
   coincidence chain     -- concurrent agreement slots on one network
   coincidence obs       -- run an instrumented BA and summarize it
   coincidence complexity-- word-complexity ledger sweep (E2 crossover)
   coincidence check     -- exhaustive small-n model checking and replay

   `ba` and `obs` take --emit-metrics/--emit-trace/--emit-events to write
   the machine-readable exports (see EXPERIMENTS.md for the schemas).
   `estimate` takes --jobs to fan trials over worker domains; outputs
   are byte-identical for every --jobs value (see DESIGN.md).
   `estimate --emit-metrics` exports the merged per-worker-shard campaign
   metrics (jobs-invariant); `--emit-trace` exports wall-clock worker
   tracks (execution detail, deliberately jobs/time-dependent).           *)

open Cmdliner

(* ------------------------- common arguments ------------------------- *)

let n_arg =
  Arg.(value & opt int 32 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let trials_arg =
  Arg.(value & opt int 1 & info [ "trials" ] ~docv:"K" ~doc:"Number of seeded runs.")

let lambda_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "lambda" ] ~docv:"L"
        ~doc:"Committee parameter (default: a concentration-safe value; pass 0 for the paper's 8 ln n).")

let epsilon_arg =
  Arg.(
    value
    & opt float 0.25
    & info [ "epsilon" ] ~docv:"E" ~doc:"Resilience slack; f = floor((1/3 - epsilon) n).")

let d_arg = Arg.(value & opt float 0.04 & info [ "d" ] ~docv:"D" ~doc:"Committee slack d.")

let backend_arg =
  Arg.(
    value
    & opt (enum [ ("mock", `Mock); ("rsa", `Rsa); ("dleq", `Dleq) ]) `Mock
    & info [ "backend" ] ~docv:"B"
        ~doc:"VRF backend: mock (fast oracle), rsa (RSA-FDH-VRF) or dleq (Schnorr-group DDH VRF).")

let rsa_bits_arg =
  Arg.(value & opt int 256 & info [ "rsa-bits" ] ~docv:"BITS" ~doc:"RSA modulus size.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs" ] ~docv:"J"
        ~doc:"Worker domains for estimator trials (0 = recommended domain count). Results are \
              byte-identical for every value.")

(* Estimator flags are validated before any keygen happens: a campaign
   over zero trials has no rates (Analysis raises too, but the CLI should
   fail with usage text, not a backtrace). *)
let check_campaign_flags ~trials ~jobs =
  if trials <= 0 then Error (Printf.sprintf "--trials must be positive (got %d)" trials)
  else if jobs < 0 then
    Error (Printf.sprintf "--jobs must be >= 0 (got %d; 0 = recommended domain count)" jobs)
  else Ok ()

let scheduler_arg =
  Arg.(
    value
    & opt (enum [ ("random", `Random); ("fifo", `Fifo); ("split", `Split); ("targeted", `Targeted) ])
        `Random
    & info [ "scheduler" ] ~docv:"S" ~doc:"Adversarial scheduler.")

let corruption_arg =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("crash", `Crash); ("adaptive", `Adaptive); ("silent", `Silent) ])
        `None
    & info [ "corruption" ] ~docv:"C"
        ~doc:"Fault injection: none, crash (f random), adaptive (crash first f senders), silent (f byzantine mutes).")

let make_keyring backend rsa_bits n seed =
  let backend =
    match backend with
    | `Mock -> Vrf.Mock
    | `Rsa -> Vrf.Rsa_fdh { bits = rsa_bits }
    | `Dleq -> Vrf.Dleq { qbits = 160 }
  in
  Vrf.Keyring.create ~backend ~n ~seed:(Printf.sprintf "cli-%d" seed) ()

let make_params n epsilon d lambda =
  let lambda =
    match lambda with
    | Some 0 -> min n (Core.Params.default_lambda ~n)
    | Some l -> l
    | None -> min n (max (Core.Params.default_lambda ~n) (int_of_float (6.4 *. sqrt (float_of_int n))))
  in
  Core.Params.make_exn ~strict:false ~epsilon ~d ~lambda ~n ()

let make_scheduler n = function
  | `Random -> Sim.Scheduler.random ()
  | `Fifo -> Sim.Scheduler.fifo ()
  | `Split -> Sim.Scheduler.split ~group:(fun pid -> pid < n / 2) ~cross_delay:25.0 ()
  | `Targeted -> Sim.Scheduler.targeted ~victims:(fun pid -> pid < n / 4) ~factor:40.0 ()

(* --------------------------- observability --------------------------- *)

let emit_metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-metrics" ] ~docv:"FILE"
        ~doc:"Write a coincidence.metrics/1 JSON document (per-tag and per-round counters, \
              histograms, spans, per-run outcomes).")

let emit_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event file (open in chrome://tracing or Perfetto).")

let emit_events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-events" ] ~docv:"FILE"
        ~doc:"Write the raw send/deliver/corrupt event stream as JSONL, one record per line.")

let write_file path f =
  match open_out path with
  | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  | exception Sys_error e ->
      Format.eprintf "cannot write %s: %s@." path e;
      exit 1

(* Per-trial observation state; every run_ba call gets its own trace and
   span recorder while metrics aggregate across trials.  The event stream
   and the Chrome trace are written trial by trial, so they hold one
   trial's records at a time. *)
type observation = {
  metrics : Obs.Metrics.t;
  mutable outcomes : Obs.Json.t list;  (* newest first *)
  mutable spans : Obs.Span.t list;     (* newest first *)
  chrome : (Obs.Json.t list -> unit) option;  (* appends to the --emit-trace document *)
  events : out_channel option;                (* --emit-events *)
}

let observation ~chrome events =
  { metrics = Obs.Metrics.create (); outcomes = []; spans = []; chrome; events }

(* [f] with the --emit-events file open, if one was asked for. *)
let with_events emit_events f =
  match emit_events with
  | Some path -> write_file path (fun oc -> f (Some oc))
  | None -> f None

(* [f] with the --emit-trace document open, if one was asked for: [f]
   gets the function that appends events to it, and the document is
   closed when [f] returns. *)
let with_chrome emit_trace f =
  match emit_trace with
  | Some path -> write_file path (fun oc -> Obs.Export.write_chrome oc (fun add -> f (Some add)))
  | None -> f None

(* Probe for one BA trial: returns the attach function for Runner ~probe
   and a [finish] to call once the run returned.  The trial's span reads
   the engine's clock through a manual one, set when the run starts and
   when it returns, so the recorder kept for the metrics document does
   not keep the engine, and with it the trace ring, alive. *)
let ba_trial_probe obs ~trial =
  let trace = Sim.Trace.create () in
  let clock, set_clock = Obs.Span.manual_clock () in
  let sp = Obs.Span.create clock in
  let read_engine = ref ignore in
  let attach eng =
    Core.Instrument.attach_ba eng ~metrics:obs.metrics;
    Sim.Trace.attach trace eng;
    (read_engine := fun () -> set_clock (Sim.Engine.step eng) (Sim.Engine.now eng));
    !read_engine ();
    Obs.Span.begin_span sp (Printf.sprintf "trial-%d" trial)
  in
  let finish (o : Core.Runner.outcome) =
    !read_engine ();
    Obs.Span.end_span sp;
    obs.spans <- sp :: obs.spans;
    obs.outcomes <- Core.Instrument.outcome_json o :: obs.outcomes;
    Option.iter
      (fun add ->
        add [ Obs.Export.chrome_process_name ~pid:trial (Printf.sprintf "trial %d" trial) ];
        add (Obs.Export.chrome_of_trace ~pid:trial trace);
        add (Obs.Export.chrome_of_spans ~pid:trial sp))
      obs.chrome;
    Option.iter
      (fun oc -> Obs.Export.write_jsonl oc (Obs.Export.trace_jsonl ~run:trial trace))
      obs.events
  in
  (attach, finish)

let write_metrics obs ~params ~emit_metrics =
  match emit_metrics with
  | Some path ->
      write_file path (fun oc ->
          Obs.Json.to_channel oc
            (Core.Instrument.metrics_doc ~params ~outcomes:(List.rev obs.outcomes)
               ~spans:(List.rev obs.spans) ~metrics:obs.metrics ());
          output_char oc '\n')
  | None -> ()

(* ------------------------------ params ------------------------------ *)

let params_cmd =
  let run n =
    Format.printf "n = %d@." n;
    (match Core.Params.epsilon_window ~n with
    | Some (lo, hi) -> Format.printf "epsilon window: (%.4f, %.4f)@." lo hi
    | None -> Format.printf "epsilon window: empty (strict constraints need larger n)@.");
    (match Core.Params.make ~n () with
    | Ok p ->
        Format.printf "strict defaults: %a@." Core.Params.pp p;
        (match Core.Params.d_window ~epsilon:p.Core.Params.epsilon ~lambda:p.Core.Params.lambda with
        | Some (lo, hi) -> Format.printf "d window: (%.4f, %.4f)@." lo hi
        | None -> Format.printf "d window: empty@.");
        Format.printf "coin bound (Lemma 4.8): %.4f@."
          (Core.Params.coin_success_bound ~epsilon:p.Core.Params.epsilon);
        Format.printf "whp-coin bound (Lemma B.7): %.4f@."
          (Core.Params.whp_coin_success_bound ~d:p.Core.Params.d)
    | Error e -> Format.printf "strict defaults: %s@." e);
    let clamped = make_params n 0.25 0.04 None in
    Format.printf "practical (concentration-safe): %a@." Core.Params.pp clamped;
    0
  in
  Cmd.v (Cmd.info "params" ~doc:"Inspect parameter windows and derived thresholds for an n.")
    Term.(const run $ n_arg)

(* -------------------------------- ba -------------------------------- *)

let corruption_of params = function
  | `None -> Core.Runner.Honest
  | `Crash -> Core.Runner.Crash_random params.Core.Params.f
  | `Adaptive -> Core.Runner.Crash_adaptive_first params.Core.Params.f
  | `Silent -> Core.Runner.Byz_silent_random params.Core.Params.f

let unanimous_arg =
  Arg.(value & flag & info [ "unanimous" ] ~doc:"All processes propose 1 (tests validity).")

(* The shared trial loop of `ba` and `obs`.  Exporters attach only when a
   sink asked for them: an unobserved run takes the exact same code path
   as before this layer existed. *)
let run_ba_trials ~observe ~chrome ?events n seed trials lambda epsilon d backend rsa_bits
    scheduler corruption unanimous =
  let keyring = make_keyring backend rsa_bits n seed in
  let params = make_params n epsilon d lambda in
  Format.printf "%a@." Core.Params.pp params;
  let corruption = corruption_of params corruption in
  let obs = observation ~chrome events in
  let exit_code = ref 0 in
  for i = 0 to trials - 1 do
    let inputs = if unanimous then Array.make n 1 else Array.init n (fun p -> (p + i) mod 2) in
    let probe, finish =
      if observe then
        let attach, finish = ba_trial_probe obs ~trial:i in
        (Some attach, finish)
      else (None, fun _ -> ())
    in
    let o =
      Core.Runner.run_ba
        ~scheduler:(make_scheduler n scheduler)
        ?probe ~corruption ~keyring ~params ~inputs ~seed:(seed + i) ()
    in
    finish o;
    Format.printf "run %d: %a@." i Core.Runner.pp_outcome o;
    if not (o.Core.Runner.all_decided && o.Core.Runner.agreement) then exit_code := 1
  done;
  (params, obs, !exit_code)

let ba_cmd =
  let run n seed trials lambda epsilon d backend rsa_bits scheduler corruption unanimous
      emit_metrics emit_trace emit_events =
    let observe = emit_metrics <> None || emit_trace <> None || emit_events <> None in
    with_events emit_events (fun events ->
        with_chrome emit_trace (fun chrome ->
            let params, obs, exit_code =
              run_ba_trials ~observe ~chrome ?events n seed trials lambda epsilon d backend
                rsa_bits scheduler corruption unanimous
            in
            write_metrics obs ~params ~emit_metrics;
            exit_code))
  in
  Cmd.v (Cmd.info "ba" ~doc:"Run Byzantine Agreement WHP instances.")
    Term.(
      const run $ n_arg $ seed_arg $ trials_arg $ lambda_arg $ epsilon_arg $ d_arg $ backend_arg
      $ rsa_bits_arg $ scheduler_arg $ corruption_arg $ unanimous_arg $ emit_metrics_arg
      $ emit_trace_arg $ emit_events_arg)

(* -------------------------------- obs -------------------------------- *)

let pp_label_set = function
  | [] -> ""
  | l -> "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"

let print_metrics_summary metrics =
  Format.printf "counters:@.";
  Obs.Metrics.fold_counters metrics ~init:() ~f:(fun () ~name ~labels value ->
      Format.printf "  %-44s %8d@." (name ^ pp_label_set labels) value);
  Format.printf "histograms:@.";
  Obs.Metrics.fold_histograms metrics ~init:() ~f:(fun () ~name ~labels h ->
      let mean =
        if h.Obs.Metrics.count = 0 then 0.0
        else h.Obs.Metrics.sum /. float_of_int h.Obs.Metrics.count
      in
      Format.printf "  %-44s count=%-7d mean=%-11.2f min=%-9g max=%g@."
        (name ^ pp_label_set labels)
        h.Obs.Metrics.count mean h.Obs.Metrics.min h.Obs.Metrics.max)

let print_spans_summary recorders =
  Format.printf "spans:@.";
  List.iter
    (fun recorder ->
      List.iter
        (fun (s : Obs.Span.span) ->
          Format.printf "  %s%-24s steps [%d, %d]  vtime [%.2f, %.2f]@."
            (String.make (2 * s.Obs.Span.nest) ' ')
            s.Obs.Span.name s.Obs.Span.begin_step s.Obs.Span.end_step s.Obs.Span.begin_now
            s.Obs.Span.end_now)
        (Obs.Span.completed recorder))
    recorders

(* Summarize a previously written --emit-metrics document.  Returns a
   non-zero exit code on parse/schema mismatch, so CI can use it as a
   validator for freshly produced files. *)
let summarize_loaded path =
  let str_member key j = Option.bind (Obs.Json.member key j) Obs.Json.to_string_opt in
  let int_member key j = Option.bind (Obs.Json.member key j) Obs.Json.to_int_opt in
  let list_member key j =
    match Obs.Json.member key j with Some l -> Obs.Json.to_list l | None -> []
  in
  let labels_of j =
    match Obs.Json.member "labels" j with
    | Some (Obs.Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun s -> (k, s)) (Obs.Json.to_string_opt v))
          kvs
    | _ -> []
  in
  let contents =
    match open_in_bin path with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    | exception Sys_error e -> Error e
  in
  match Result.bind contents Obs.Json.of_string with
  | Error e ->
      Format.eprintf "%s: %s@." path e;
      1
  | Ok doc -> (
      match str_member "schema" doc with
      | Some s when s = Core.Instrument.metrics_schema ->
          Format.printf "schema: %s@." s;
          (match Obs.Json.member "params" doc with
          | Some params -> (
              match
                (int_member "n" params, int_member "f" params, int_member "lambda" params)
              with
              | Some n, Some f, Some lambda ->
                  Format.printf "params: n=%d f=%d lambda=%d@." n f lambda
              | _ -> ())
          | None -> ());
          let runs = list_member "runs" doc in
          Format.printf "runs: %d@." (List.length runs);
          List.iteri
            (fun i r ->
              match
                ( int_member "decided" r,
                  int_member "n" r,
                  int_member "rounds" r,
                  int_member "words" r )
              with
              | Some d, Some n, Some rounds, Some words ->
                  Format.printf "  run %d: decided %d/%d, rounds=%d, words=%d@." i d n rounds
                    words
              | _ -> ())
            runs;
          let metrics = Option.value ~default:Obs.Json.Null (Obs.Json.member "metrics" doc) in
          let counters = list_member "counters" metrics in
          Format.printf "counter series: %d@." (List.length counters);
          List.iter
            (fun c ->
              match (str_member "name" c, int_member "value" c) with
              | Some name, Some v ->
                  Format.printf "  %-44s %8d@." (name ^ pp_label_set (labels_of c)) v
              | _ -> ())
            counters;
          let histograms = list_member "histograms" metrics in
          Format.printf "histogram series: %d@." (List.length histograms);
          List.iter
            (fun h ->
              match (str_member "name" h, int_member "count" h) with
              | Some name, Some count ->
                  Format.printf "  %-44s count=%d@." (name ^ pp_label_set (labels_of h)) count
              | _ -> ())
            histograms;
          Format.printf "spans: %d@." (List.length (list_member "spans" doc));
          0
      | Some s when s = Obs.Export.bench_schema -> begin
          (* Bench documents: every row must be an object naming its table;
             reject structurally broken files so CI catches producer drift. *)
          Format.printf "schema: %s@." s;
          let rows = list_member "rows" doc in
          let bad =
            List.filter (fun r -> str_member "table" r = None) rows
          in
          if rows = [] then begin
            Format.eprintf "%s: bench document has no rows@." path;
            1
          end
          else if bad <> [] then begin
            Format.eprintf "%s: %d row(s) lack a \"table\" member@." path (List.length bad);
            1
          end
          else begin
            let tables = Hashtbl.create 8 in
            List.iter
              (fun r ->
                match str_member "table" r with
                | Some t ->
                    Hashtbl.replace tables t (1 + Option.value ~default:0 (Hashtbl.find_opt tables t))
                | None -> ())
              rows;
            Format.printf "rows: %d@." (List.length rows);
            Hashtbl.fold (fun t c acc -> (t, c) :: acc) tables []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
            |> List.iter (fun (t, c) -> Format.printf "  %-12s %6d@." t c);
            0
          end
        end
      | Some s when s = Obs.Export.ledger_schema -> begin
          (* Ledger sweeps get the full structural validation: CI runs
             freshly emitted `complexity --json` files through here. *)
          match Obs.Export.validate_ledger doc with
          | Error e ->
              Format.eprintf "%s: %s@." path e;
              1
          | Ok entries ->
              Format.printf "schema: %s@.sweep entries: %d@." s entries;
              List.iter
                (fun entry ->
                  match (str_member "protocol" entry, int_member "n" entry) with
                  | Some proto, Some n ->
                      let words =
                        Option.value ~default:0
                          (Option.bind (Obs.Json.member "total" entry)
                             (int_member "correct_words"))
                      in
                      Format.printf "  %-10s n=%-7d correct_words=%-10d rounds=%d@." proto n
                        words
                        (List.length (list_member "rounds" entry))
                  | _ -> ())
                (list_member "sweep" doc);
              0
        end
      | Some s when s = Mc.Replay.schema -> begin
          (* Checker counterexamples: full strict validation, so CI can
             vet freshly emitted `check --json` files. *)
          match Mc.Replay.of_json doc with
          | Error e ->
              Format.eprintf "%s: %s@." path e;
              1
          | Ok spec ->
              Format.printf "schema: %s@." s;
              Format.printf
                "counterexample: protocol=%s n=%d f=%d coin=%b%s invariant=%s trace=%d event(s)@."
                spec.Mc.Replay.sp_protocol spec.sp_n spec.sp_f spec.sp_coin
                (match spec.sp_byz with
                | None -> ""
                | Some b -> Printf.sprintf " byz=%d(%s)" b (if spec.sp_active_byz then "active" else "silent"))
                spec.sp_invariant
                (List.length spec.sp_trace);
              Format.printf "detail: %s@." spec.sp_detail;
              0
        end
      | Some s ->
          Format.eprintf "%s: unexpected schema %S (want %S, %S, %S or %S)@." path s
            Core.Instrument.metrics_schema Obs.Export.bench_schema Obs.Export.ledger_schema
            Mc.Replay.schema;
          1
      | None ->
          Format.eprintf "%s: missing \"schema\" member@." path;
          1)

let obs_cmd =
  let run n seed trials lambda epsilon d backend rsa_bits scheduler corruption unanimous
      emit_metrics emit_trace emit_events load =
    match load with
    | Some path -> summarize_loaded path
    | None ->
        with_events emit_events (fun events ->
            with_chrome emit_trace (fun chrome ->
                let params, obs, exit_code =
                  run_ba_trials ~observe:true ~chrome ?events n seed trials lambda epsilon d
                    backend rsa_bits scheduler corruption unanimous
                in
                print_metrics_summary obs.metrics;
                print_spans_summary (List.rev obs.spans);
                write_metrics obs ~params ~emit_metrics;
                exit_code))
  in
  let load_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:"Summarize an existing --emit-metrics, bench --json or complexity --json document \
                instead of running; exits non-zero if the file does not parse, carries the wrong \
                schema, or (for ledger sweeps) fails structural validation.")
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:"Run an instrumented BA and print per-tag/per-round metrics, or summarize a saved \
             metrics file with --load.")
    Term.(
      const run $ n_arg $ seed_arg $ trials_arg $ lambda_arg $ epsilon_arg $ d_arg $ backend_arg
      $ rsa_bits_arg $ scheduler_arg $ corruption_arg $ unanimous_arg $ emit_metrics_arg
      $ emit_trace_arg $ emit_events_arg $ load_arg)

(* ----------------------------- estimate ------------------------------ *)

(* Statistical campaigns with a machine-readable export.  The document
   deliberately has no "jobs" member: the worker count is an execution
   detail, and CI diffs --jobs 1 vs --jobs 4 outputs byte-for-byte to
   enforce the determinism contract. *)
let estimate_schema = "coincidence.estimate/1"

let estimate_cmd =
  let js s = Obs.Json.Str s
  and ji i = Obs.Json.Int i
  and jf f = Obs.Json.Float f in
  let summary_json (s : Core.Stats.summary) =
    Obs.Json.Obj
      [
        ("count", ji s.Core.Stats.count);
        ("mean", jf s.Core.Stats.mean);
        ("stddev", jf s.Core.Stats.stddev);
        ("min", jf s.Core.Stats.min);
        ("p50", jf s.Core.Stats.p50);
        ("p95", jf s.Core.Stats.p95);
        ("max", jf s.Core.Stats.max);
      ]
  in
  let coin_json (e : Core.Analysis.coin_estimate) =
    Obs.Json.Obj
      [
        ("trials", ji e.Core.Analysis.trials);
        ("all_zero", ji e.Core.Analysis.all_zero);
        ("all_one", ji e.Core.Analysis.all_one);
        ("disagree", ji e.Core.Analysis.disagree);
        ("success_rate", jf e.Core.Analysis.success_rate);
        ("mean_words", jf e.Core.Analysis.mean_words);
        ("mean_depth", jf e.Core.Analysis.mean_depth);
      ]
  in
  let params_json (p : Core.Params.t) =
    Obs.Json.Obj
      [
        ("n", ji p.Core.Params.n);
        ("f", ji p.Core.Params.f);
        ("lambda", ji p.Core.Params.lambda);
        ("w", ji p.Core.Params.w);
        ("b", ji p.Core.Params.b);
        ("epsilon", jf p.Core.Params.epsilon);
        ("d", jf p.Core.Params.d);
      ]
  in
  let run kind n seed trials lambda epsilon d backend rsa_bits crash jobs json emit_metrics
      emit_trace =
    match check_campaign_flags ~trials ~jobs with
    | Error e ->
        Format.eprintf "estimate: %s@." e;
        2
    | Ok () ->
        let keyring = make_keyring backend rsa_bits n seed in
        let params () = make_params n epsilon d lambda in
        (* Campaign observability: one metrics shard + span recorder per
           worker slot.  The metrics sink keeps the default zero clock so
           its merged output is jobs-invariant; asking for a trace opts
           into wall-clock worker tracks (microseconds since start). *)
        let obs =
          if emit_metrics = None && emit_trace = None then None
          else if emit_trace <> None then begin
            let t0 = Unix.gettimeofday () in
            let us () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
            Some
              (Core.Analysis.campaign_obs
                 ~clock:
                   {
                     Obs.Span.step = us;
                     now = (fun () -> Unix.gettimeofday () -. t0);
                   }
                 ~jobs ())
          end
          else Some (Core.Analysis.campaign_obs ~jobs ())
        in
        let kind_name, params_member, estimate_json, human =
          match kind with
          | `Coin ->
              let f = int_of_float (float_of_int n *. ((1.0 /. 3.0) -. epsilon)) in
              let est =
                Core.Analysis.estimate_shared_coin ~crash ~jobs ?obs ~keyring ~n ~f ~trials
                  ~base_seed:seed ()
              in
              ( "coin",
                Obs.Json.Obj [ ("n", ji n); ("f", ji f) ],
                coin_json est,
                fun fmt -> Format.fprintf fmt "%a" Core.Analysis.pp_coin_estimate est )
          | `Whp_coin ->
              let p = params () in
              let est =
                Core.Analysis.estimate_whp_coin ~crash ~jobs ?obs ~keyring ~params:p ~trials
                  ~base_seed:seed ()
              in
              ( "whp-coin",
                params_json p,
                coin_json est,
                fun fmt -> Format.fprintf fmt "%a" Core.Analysis.pp_coin_estimate est )
          | `Committee ->
              let p = params () in
              let est =
                Core.Analysis.estimate_committees ~jobs ?obs ~keyring ~params:p ~trials
                  ~base_seed:seed ()
              in
              ( "committee",
                params_json p,
                Obs.Json.Obj
                  [
                    ("trials", ji est.Core.Analysis.trials);
                    ("s1", jf est.Core.Analysis.s1);
                    ("s2", jf est.Core.Analysis.s2);
                    ("s3", jf est.Core.Analysis.s3);
                    ("s4", jf est.Core.Analysis.s4);
                    ("mean_size", jf est.Core.Analysis.mean_size);
                  ],
                fun fmt -> Format.fprintf fmt "%a" Core.Analysis.pp_committee_estimate est )
          | `Ba ->
              let p = params () in
              let est =
                Core.Analysis.estimate_ba ~jobs ?obs ~keyring ~params:p ~trials ~base_seed:seed ()
              in
              ( "ba",
                params_json p,
                Obs.Json.Obj
                  [
                    ("trials", ji est.Core.Analysis.trials);
                    ("safe", ji est.Core.Analysis.safe);
                    ("complete", ji est.Core.Analysis.complete);
                    ("rounds", summary_json est.Core.Analysis.rounds);
                    ("words", summary_json est.Core.Analysis.words);
                    ("depth", summary_json est.Core.Analysis.depth);
                  ],
                fun fmt -> Format.fprintf fmt "%a" Core.Analysis.pp_ba_estimate est )
        in
        let doc =
          Obs.Json.Obj
            [
              ("schema", js estimate_schema);
              ("kind", js kind_name);
              ("base_seed", ji seed);
              ("trials", ji trials);
              ("backend",
               js (match backend with `Mock -> "mock" | `Rsa -> "rsa" | `Dleq -> "dleq"));
              ("params", params_member);
              ("estimate", estimate_json);
            ]
        in
        (match (emit_metrics, obs) with
        | Some path, Some o ->
            (* A metrics/1 document from the merged shards.  Runs and
               spans are deliberately empty: the estimate document carries
               the per-run data, and spans under the zero clock are noise
               — what's left is exactly the jobs-invariant part, so
               --jobs 1 and --jobs 4 files diff clean. *)
            let merged = Obs.Metrics.Sharded.merged o.Core.Analysis.obs_metrics in
            let mdoc =
              Obs.Json.Obj
                [
                  ("schema", js Core.Instrument.metrics_schema);
                  ("params", params_member);
                  ("runs", Obs.Json.List []);
                  ("metrics", Obs.Metrics.to_json merged);
                  ("spans", Obs.Json.List []);
                ]
            in
            write_file path (fun oc ->
                Obs.Json.to_channel oc mdoc;
                output_char oc '\n')
        | _ -> ());
        (match (emit_trace, obs) with
        | Some path, Some o ->
            (* One Chrome track per worker domain: thread_name metadata
               plus that worker's spans with tid forced to the slot. *)
            write_file path (fun oc ->
                Obs.Export.write_chrome oc (fun add ->
                    add
                      [
                        Obs.Export.chrome_process_name ~pid:0
                          (Printf.sprintf "estimate %s" kind_name);
                      ];
                    Array.iteri
                      (fun w spans ->
                        add
                          (Obs.Export.chrome_thread_name ~pid:0 ~tid:w
                             (Printf.sprintf "worker %d" w)
                          :: Obs.Export.chrome_of_spans ~pid:0 ~tid:w spans))
                      o.Core.Analysis.obs_spans))
        | _ -> ());
        (match json with
        | Some "-" ->
            (* machine-clean stdout: the document and nothing else *)
            Obs.Json.to_channel stdout doc;
            print_newline ()
        | Some path ->
            write_file path (fun oc ->
                Obs.Json.to_channel oc doc;
                output_char oc '\n');
            Format.printf "%s campaign: %t@.wrote %s@." kind_name human path
        | None -> Format.printf "%s campaign: %t@." kind_name human);
        0
  in
  let kind_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("coin", `Coin); ("whp-coin", `Whp_coin); ("committee", `Committee); ("ba", `Ba) ])
          `Coin
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Campaign: coin (Algorithm 1), whp-coin (Algorithm 2), committee (Claim 1) or ba \
                (Algorithm 4).")
  in
  let crash_arg =
    Arg.(
      value
      & opt int 0
      & info [ "crash" ] ~docv:"K" ~doc:"Crash K random processes per coin trial.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write a coincidence.estimate/1 document to FILE (\"-\" for stdout). The document \
                never mentions the worker count, so runs at different --jobs diff clean.")
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Run a seeded statistical campaign (optionally across worker domains with --jobs) \
             and report the estimate, optionally as machine-readable JSON.")
    Term.(
      const run $ kind_arg $ n_arg $ seed_arg $ trials_arg $ lambda_arg $ epsilon_arg $ d_arg
      $ backend_arg $ rsa_bits_arg $ crash_arg $ jobs_arg $ json_arg $ emit_metrics_arg
      $ emit_trace_arg)

(* ----------------------------- committee ----------------------------- *)

let committee_cmd =
  let run n seed lambda epsilon d s =
    let keyring = make_keyring `Mock 256 n seed in
    let params = make_params n epsilon d lambda in
    let lambda = params.Core.Params.lambda in
    let members = Core.Sample.committee keyring ~s ~lambda in
    Format.printf "C(%S, lambda = %d) at n = %d: %d members@." s lambda n (List.length members);
    Format.printf "  W = %d, B = %d@." params.Core.Params.w params.Core.Params.b;
    Format.printf "  members: %s@."
      (String.concat ", " (List.map string_of_int members));
    0
  in
  let s_arg =
    Arg.(value & opt string "demo" & info [ "string" ] ~docv:"STRING" ~doc:"Committee string.")
  in
  Cmd.v (Cmd.info "committee" ~doc:"Sample a committee and print its membership.")
    Term.(const run $ n_arg $ seed_arg $ lambda_arg $ epsilon_arg $ d_arg $ s_arg)

(* ------------------------------- chain ------------------------------- *)

let chain_cmd =
  let run n seed lambda epsilon d slots =
    let keyring = make_keyring `Mock 256 n seed in
    let params = make_params n epsilon d lambda in
    let rng = Crypto.Rng.create seed in
    let inputs = Array.init slots (fun _ -> Array.init n (fun _ -> Crypto.Rng.int rng 2)) in
    let o = Core.Chain.run_concurrent ~keyring ~params ~inputs ~seed () in
    Format.printf "%a@." Core.Chain.pp_outcome o;
    if o.Core.Chain.all_slots_decided then 0 else 1
  in
  let slots_arg =
    Arg.(value & opt int 4 & info [ "slots" ] ~docv:"K" ~doc:"Concurrent agreement slots.")
  in
  Cmd.v (Cmd.info "chain" ~doc:"Decide several agreement slots concurrently on one network.")
    Term.(const run $ n_arg $ seed_arg $ lambda_arg $ epsilon_arg $ d_arg $ slots_arg)

(* ---------------------------- complexity ----------------------------- *)

(* The E2 crossover evidence, live: sweep n with the word-complexity
   ledger attached, fit log-log slopes, and report where WHP-BA's
   sub-quadratic curve undercuts the Theta(n^2) baselines.  Inputs are
   unanimous (all 1): Ben-Or's mixed-input phase is expected-exponential
   in n and would hang the sweep, while the unanimous path terminates in
   O(1) rounds for every protocol — the per-round word complexity is the
   comparison the paper's Section 2 metric makes. *)

let complexity_proto_name = function
  | `Whp_ba -> "whp-ba"
  | `Benor -> "benor"
  | `Bracha -> "bracha"
  | `Rabin -> "rabin"

(* One (protocol, n) point: [trials] fixed-seed runs accumulated into one
   ledger.  Returns the ledger plus whether every run terminated safely. *)
let complexity_point proto ~lambda ~max_steps ~n ~trials ~seed =
  let ledger = Sim.Ledger.create () in
  let inputs = Array.make n 1 in
  let ok = ref true in
  let note all_decided agreement = if not (all_decided && agreement) then ok := false in
  for i = 0 to trials - 1 do
    let seed = seed + i in
    match proto with
    | `Whp_ba ->
        let keyring = make_keyring `Mock 256 n seed in
        let params = make_params n 0.25 0.04 lambda in
        let o =
          Core.Runner.run_ba ?max_steps
            ~probe:(fun eng -> Core.Instrument.attach_ba_ledger eng ledger)
            ~keyring ~params ~inputs ~seed ()
        in
        note o.Core.Runner.all_decided o.Core.Runner.agreement
    | `Benor ->
        let o =
          Baselines.Brun.run_benor ?max_steps
            ~probe:(fun eng ->
              Sim.Ledger.attach eng ledger ~tag_of:Baselines.Benor.tag_of_msg
                ~round_of:Baselines.Benor.round_of_msg ())
            ~n ~f:((n - 1) / 5) ~inputs ~seed ()
        in
        note o.Baselines.Brun.all_decided o.Baselines.Brun.agreement
    | `Bracha ->
        let o =
          Baselines.Brun.run_bracha ?max_steps
            ~probe:(fun eng ->
              Sim.Ledger.attach eng ledger ~tag_of:Baselines.Bracha.tag_of_msg
                ~round_of:Baselines.Bracha.round_of_msg ())
            ~n ~f:((n - 1) / 3) ~inputs ~seed ()
        in
        note o.Baselines.Brun.all_decided o.Baselines.Brun.agreement
    | `Rabin ->
        let o =
          Baselines.Brun.run_rabin ?max_steps
            ~probe:(fun eng ->
              Sim.Ledger.attach eng ledger ~tag_of:Baselines.Rabin.tag_of_msg
                ~round_of:Baselines.Rabin.round_of_msg ())
            ~n ~f:((n - 1) / 10) ~inputs ~seed ()
        in
        note o.Baselines.Brun.all_decided o.Baselines.Brun.agreement
  done;
  (ledger, !ok)

let complexity_cmd =
  let run ns trials seed lambda max_steps protos json =
    if trials <= 0 then begin
      Format.eprintf "complexity: --trials must be positive (got %d)@." trials;
      2
    end
    else if ns = [] || List.exists (fun n -> n < 4) ns then begin
      Format.eprintf "complexity: --ns needs a non-empty list of n >= 4@." ;
      2
    end
    else begin
      let ns = List.sort_uniq Int.compare ns in
      (* results.(p) = per-n (n, ledger, ok, mean correct words/trial) *)
      let results =
        List.map
          (fun proto ->
            let points =
              List.map
                (fun n ->
                  let ledger, ok =
                    complexity_point proto ~lambda ~max_steps ~n ~trials ~seed
                  in
                  let words =
                    float_of_int (Sim.Ledger.total ledger).Sim.Ledger.correct_words
                    /. float_of_int trials
                  in
                  (n, ledger, ok, words))
                ns
            in
            (proto, points))
          protos
      in
      (* A slope needs two points; a single-n sweep (the CI smoke, the
         100k headline run) still exports its ledger, just without fits. *)
      let fit points =
        if List.length points < 2 then None
        else
          Some
            (Core.Stats.loglog_slope
               (List.map (fun (n, _, _, w) -> (float_of_int n, max 1.0 w)) points))
      in
      let loglog pts =
        List.map (fun (n, _, _, w) -> (log (float_of_int n), log (max 1.0 w))) pts
      in
      (* Crossover vs each baseline: the first swept n where WHP-BA is
         cheaper, or the log-log extrapolation when the sweep never
         reaches it.  Computed once here so the human table and the
         exported document report the same verdicts. *)
      let crossovers =
        match
          List.find_map
            (fun (proto, points) -> match proto with `Whp_ba -> Some points | _ -> None)
            results
        with
        | None -> []
        | Some whp_points ->
            let whp_fit =
              if List.length whp_points < 2 then None
              else Some (Core.Stats.linear_fit (loglog whp_points))
            in
            List.filter_map
              (fun (proto, points) ->
                if proto = `Whp_ba then None
                else begin
                  let name = complexity_proto_name proto in
                  let observed =
                    List.find_opt
                      (fun ((n, _, _, w), (n', _, _, w')) -> n = n' && w <= w')
                      (List.combine whp_points points)
                  in
                  match (observed, whp_fit) with
                  | Some ((n, _, _, _), _), _ -> Some (name, `Observed n)
                  | None, None -> None
                  | None, Some (s1, b1) ->
                      let s2, b2 = Core.Stats.linear_fit (loglog points) in
                      if s1 < s2 then begin
                        let star = exp ((b1 -. b2) /. (s2 -. s1)) in
                        if star <= 1e9 then Some (name, `Projected star)
                        else Some (name, `Beyond (s2 -. s1))
                      end
                      else Some (name, `Not_reached)
                end)
              results
      in
      (match json with
      | Some target ->
          let entries =
            List.concat_map
              (fun (proto, points) ->
                List.map
                  (fun (n, ledger, ok, _) ->
                    let extra =
                      [ ("trials", Obs.Json.Int trials); ("ok", Obs.Json.Bool ok) ]
                      @
                      (* Committee size is a WHP-BA knob only; baselines are
                         all-to-all and have no lambda to report. *)
                      match proto with
                      | `Whp_ba ->
                          let p = make_params n 0.25 0.04 lambda in
                          [ ("lambda", Obs.Json.Int p.Core.Params.lambda) ]
                      | _ -> []
                    in
                    Core.Instrument.ledger_json
                      ~protocol:(complexity_proto_name proto)
                      ~n ~extra ledger)
                  points)
              results
          in
          let fits =
            List.map
              (fun (proto, points) ->
                Obs.Json.Obj
                  [
                    ("protocol", Obs.Json.Str (complexity_proto_name proto));
                    ( "loglog_slope",
                      match fit points with
                      | Some s -> Obs.Json.Float s
                      | None -> Obs.Json.Null );
                  ])
              results
          in
          let crossover_json =
            List.map
              (fun (name, kind) ->
                Obs.Json.Obj
                  (("vs", Obs.Json.Str name)
                  ::
                  (match kind with
                  | `Observed n -> [ ("observed_at_n", Obs.Json.Int n) ]
                  | `Projected star -> [ ("projected_at_n", Obs.Json.Float star) ]
                  | `Beyond gap ->
                      [ ("beyond_n", Obs.Json.Float 1e9); ("slope_gap", Obs.Json.Float gap) ]
                  | `Not_reached -> [ ("reached", Obs.Json.Bool false) ])))
              crossovers
          in
          let doc =
            Core.Instrument.ledger_doc
              ~extra:
                [
                  ("base_seed", Obs.Json.Int seed);
                  ("trials", Obs.Json.Int trials);
                  ("fits", Obs.Json.List fits);
                  ("crossovers", Obs.Json.List crossover_json);
                ]
              entries
          in
          if target = "-" then begin
            Obs.Json.to_channel stdout doc;
            print_newline ()
          end
          else
            write_file target (fun oc ->
                Obs.Json.to_channel oc doc;
                output_char oc '\n')
      | None ->
          Format.printf "%-8s %8s %12s %12s %8s %6s@." "proto" "n" "words/trial" "msgs/trial"
            "rounds" "ok";
          List.iter
            (fun (proto, points) ->
              List.iter
                (fun (n, ledger, ok, words) ->
                  let t = Sim.Ledger.total ledger in
                  Format.printf "%-8s %8d %12.1f %12.1f %8d %6b@."
                    (complexity_proto_name proto)
                    n words
                    (float_of_int t.Sim.Ledger.correct_msgs /. float_of_int trials)
                    (Sim.Ledger.max_round ledger + 1)
                    ok)
                points;
              match fit points with
              | Some s ->
                  Format.printf "%-8s log-log slope = %.2f@." (complexity_proto_name proto) s
              | None -> ())
            results;
          List.iter
            (fun (name, kind) ->
              match kind with
              | `Observed n -> Format.printf "crossover vs %-8s observed at n = %d@." name n
              | `Projected star ->
                  Format.printf "crossover vs %-8s projected at n ~ %.0f (extrapolated)@." name
                    star
              | `Beyond gap ->
                  Format.printf
                    "crossover vs %-8s beyond n ~ 1e9 at these constants (slope gap %.2f)@."
                    name gap
              | `Not_reached -> Format.printf "crossover vs %-8s not reached in sweep@." name)
            crossovers);
      0
    end
  in
  let ns_arg =
    Arg.(
      value
      & opt (list int) [ 8; 16; 32; 64 ]
      & info [ "ns" ] ~docv:"N1,N2,..." ~doc:"Comma-separated process counts to sweep.")
  in
  let protos_arg =
    Arg.(
      value
      & opt
          (list (enum [ ("whp-ba", `Whp_ba); ("benor", `Benor); ("bracha", `Bracha); ("rabin", `Rabin) ]))
          [ `Whp_ba; `Benor; `Bracha; `Rabin ]
      & info [ "protocols" ] ~docv:"P1,P2,..."
          ~doc:"Protocols to sweep: whp-ba (Algorithm 4) and the benor/bracha/rabin baselines.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write a coincidence.ledger/1 document to FILE (\"-\" for stdout): per-(protocol, \
                n) totals with the per-round, per-phase breakdown, plus fitted log-log slopes.")
  in
  Cmd.v
    (Cmd.info "complexity"
       ~doc:"Sweep n with the word-complexity ledger attached and report per-phase/per-round \
             word counts, log-log slopes and the sub-quadratic crossover (unanimous inputs).")
    Term.(
      const run $ ns_arg
      $ Arg.(value & opt int 2 & info [ "trials" ] ~docv:"K" ~doc:"Fixed-seed runs per point.")
      $ seed_arg $ lambda_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "max-steps" ] ~docv:"STEPS"
              ~doc:
                "Delivery cap per run (default: the engine's 50M).  A WHP-BA point at n = \
                 100,000 sends ~64M messages per round, so completing it needs a larger cap.")
      $ protos_arg $ json_arg)

(* ------------------------------- check ------------------------------- *)

let check_proto : string -> (module Mc.Search.PROTO) option = function
  | "benor" -> Some (module Mc.Protos.Benor_p)
  | "bracha" -> Some (module Mc.Protos.Bracha_p)
  | "approver" -> Some (module Mc.Protos.Approver_p)
  | "whp-coin" -> Some (module Mc.Protos.Coin_p)
  | "benor-no-wait" -> Some (module Mc.Protos.Benor_nowait)
  | "bracha-decide-low" -> Some (module Mc.Protos.Bracha_low)
  | _ -> None

let check_replay path =
  let contents =
    match open_in_bin path with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    | exception Sys_error e -> Error e
  in
  match Result.bind contents Obs.Json.of_string with
  | Error e ->
      Format.eprintf "check: %s: %s@." path e;
      2
  | Ok doc -> (
      match Mc.Replay.of_json doc with
      | Error e ->
          Format.eprintf "check: %s: %s@." path e;
          2
      | Ok spec -> (
          match check_proto spec.Mc.Replay.sp_protocol with
          | None ->
              Format.eprintf "check: %s: unknown protocol %S@." path spec.Mc.Replay.sp_protocol;
              2
          | Some (module P) ->
              let module D = Mc.Replay.Drive (P) in
              let o = D.run spec in
              Format.printf "replaying %s counterexample (%s): %d event(s) through Sim.Engine@."
                spec.sp_protocol spec.sp_invariant (List.length spec.sp_trace);
              Array.iteri
                (fun pid d ->
                  Format.printf "  process %d: %s@." pid
                    (match d with None -> "undecided" | Some v -> "decided " ^ string_of_int v))
                o.Mc.Replay.o_decisions;
              if o.o_reproduced then begin
                Format.printf "violation reproduced after %d deliveries@." o.o_steps;
                0
              end
              else begin
                Format.eprintf "check: %s: trace did NOT reproduce the %s violation@." path
                  spec.sp_invariant;
                1
              end))

let check_cmd =
  let run protocol n f rounds coin byz active_byz max_inject inputs max_states no_fifo json replay
      =
    match replay with
    | Some path -> check_replay path
    | None -> (
        let f = match f with Some f -> f | None -> if n >= 4 then 1 else 0 in
        let coins =
          match coin with `Zero -> [ false ] | `One -> [ true ] | `Both -> [ false; true ]
        in
        let inputs =
          match inputs with
          | None -> Ok None
          | Some s ->
              if String.length s <> n then
                Error (Printf.sprintf "--inputs %S: need exactly %d bits" s n)
              else if String.exists (fun c -> c <> '0' && c <> '1') s then
                Error (Printf.sprintf "--inputs %S: bits only" s)
              else Ok (Some (Array.init n (fun i -> Char.code s.[i] - Char.code '0')))
        in
        let cfg coin =
          {
            Mc.Search.n;
            f;
            byz;
            active_byz;
            max_inject;
            coin;
            max_rounds = rounds;
            max_states;
            fifo = not no_fifo;
          }
        in
        match (inputs, check_proto protocol) with
        | Error e, _ ->
            Format.eprintf "check: %s@." e;
            2
        | Ok _, None ->
            Format.eprintf
              "check: unknown protocol %S (benor, bracha, approver, whp-coin, benor-no-wait, \
               bracha-decide-low)@."
              protocol;
            2
        | Ok inputs, Some (module P) ->
            let module M = Mc.Search.Make (P) in
            Format.printf "coincidence check: protocol=%s n=%d f=%d rounds<=%d %s%s coin=%s@."
              protocol n f rounds
              (if not no_fifo then "fifo" else "reordering")
              (match byz with
              | None -> ""
              | Some b ->
                  Printf.sprintf " byz=%d(%s%s)" b
                    (if active_byz then "active" else "silent")
                    (if active_byz then Printf.sprintf ",inject<=%d" max_inject else ""))
              (match coin with `Zero -> "0" | `One -> "1" | `Both -> "both");
            let summary, bad =
              List.fold_left
                (fun (acc, bad) c ->
                  match bad with
                  | Some _ -> (acc, bad)
                  | None ->
                      let s =
                        match inputs with
                        | Some vec -> M.check_inputs (cfg c) vec
                        | None -> M.check_all (cfg c)
                      in
                      let bad =
                        match s.Mc.Search.s_violation with Some v -> Some (c, v) | None -> None
                      in
                      (Mc.Search.merge acc s, bad))
                (Mc.Search.empty_summary, None)
                coins
            in
            Format.printf "states=%d transitions=%d max-depth=%d@." summary.Mc.Search.s_states
              summary.s_transitions summary.s_max_depth;
            (match bad with
            | None ->
                if summary.s_truncated then
                  Format.printf
                    "no violation found (TRUNCATED at %d states — not exhaustive)@." max_states
                else Format.printf "no violation found (exhaustive)@.";
                (match json with
                | Some _ ->
                    Format.printf "note: no counterexample to write; --json ignored@."
                | None -> ());
                0
            | Some (c, v) ->
                Format.printf "VIOLATION of %s under coin=%b:@.  %s@.  inputs=%s trace=%d event(s)@."
                  v.Mc.Search.v_invariant c v.v_detail
                  (String.concat "" (Array.to_list (Array.map string_of_int v.v_inputs)))
                  (List.length v.v_trace);
                (match json with
                | None -> ()
                | Some path ->
                    let spec = Mc.Replay.spec_of_violation ~protocol (cfg c) v in
                    let oc = open_out path in
                    Fun.protect
                      ~finally:(fun () -> close_out oc)
                      (fun () ->
                        Obs.Json.to_channel oc (Mc.Replay.to_json spec);
                        output_char oc '\n');
                    Format.printf "counterexample written to %s@." path);
                1))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check a protocol's step functions over every delayed-adaptive \
          delivery schedule of a small configuration, under a derandomized coin; exits 1 with a \
          replayable counterexample on an invariant violation.")
    Term.(
      const run
      $ Arg.(
          value
          & opt string "benor"
          & info [ "protocol" ] ~docv:"NAME"
              ~doc:
                "Protocol to check: benor, bracha, approver, whp-coin, or a seeded mutant \
                 (benor-no-wait, bracha-decide-low).")
      $ Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Processes (<= 5).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "faults" ] ~docv:"F" ~doc:"Fault budget t (default: 1 when n >= 4, else 0).")
      $ Arg.(
          value & opt int 0
          & info [ "rounds" ] ~docv:"R"
              ~doc:"Delivery horizon: messages of rounds beyond R are generated but never \
                    delivered.")
      $ Arg.(
          value
          & opt (enum [ ("0", `Zero); ("1", `One); ("both", `Both) ]) `Both
          & info [ "coin" ] ~docv:"BIT" ~doc:"Derandomized coin outcome(s) to check.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "byz" ] ~docv:"PID" ~doc:"Mark PID Byzantine (silent unless --active-byz).")
      $ Arg.(
          value & flag
          & info [ "active-byz" ] ~doc:"The Byzantine process injects forged messages from the \
                                        protocol's bounded alphabet.")
      $ Arg.(
          value & opt int 1
          & info [ "max-inject" ] ~docv:"K" ~doc:"Injection budget per schedule (with \
                                                  --active-byz).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "inputs" ] ~docv:"BITS"
              ~doc:"Check one input vector, e.g. 0011 (default: every correct-process vector in \
                    {0,1}^n).")
      $ Arg.(
          value & opt int 2_000_000
          & info [ "max-states" ] ~docv:"CAP" ~doc:"Visited-state cap; 0 = unbounded.")
      $ Arg.(value & flag & info [ "no-fifo" ] ~doc:"Allow arbitrary per-link reordering \
                                                     (default: per-link FIFO, the simulator's \
                                                     channel model).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "json" ] ~docv:"FILE" ~doc:"Write the counterexample as a coincidence.check/1 \
                                               document.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "replay" ] ~docv:"FILE"
              ~doc:"Replay a coincidence.check/1 counterexample through Sim.Engine instead of \
                    checking; exits 0 iff the violation reproduces."))

let () =
  let doc = "Sub-quadratic asynchronous Byzantine Agreement WHP (Cohen-Keidar-Spiegelman, PODC 2020)" in
  let info = Cmd.info "coincidence" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            params_cmd;
            ba_cmd;
            obs_cmd;
            estimate_cmd;
            committee_cmd;
            chain_cmd;
            complexity_cmd;
            check_cmd;
          ]))
