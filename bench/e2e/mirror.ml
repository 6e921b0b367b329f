(* A bench-side copy of [Core.Runner.run_ba], built only from public
   calls, with spans around the calls into each layer: [Ba.make_ctx] and
   the n [Ba.create] (setup), [Ba.propose] and [Ba.handle] (protocol
   steps), each [Engine.broadcast], and [Engine.run].  Spans are timed
   with the monotonic nanosecond clock and summed as they close, so a
   traced run keeps no per-span record.

   A clock read costs about 30 ns, a tenth of a warm [Ba.handle] call
   on the mock backend, so timing every delivery would slow the traced
   run by some 15 %.  One [Ba.handle] call in [handle_sample] is timed
   instead, and the protocol-step time is the sampled mean times the
   call count; every other span is timed on every call.

   The copy must stay execution-identical to lib/core/runner.ml: the
   harness compares its outcome with [Runner.run_ba]'s on every traced
   instance and fails the run on any difference. *)

let handle_sample = 4

type spans = {
  mutable setup_ns : int;
  mutable propose_ns : int;
  mutable handle_calls : int;
  mutable handle_timed : int;
  mutable handle_timed_ns : int;
  mutable bcast_calls : int;
  mutable bcast_ns : int;
  mutable run_ns : int;
  mutable run_bcast_ns : int;  (* broadcasts made from handlers, inside Engine.run *)
  mutable run_handle_calls : int;
}

let spans () =
  {
    setup_ns = 0;
    propose_ns = 0;
    handle_calls = 0;
    handle_timed = 0;
    handle_timed_ns = 0;
    bcast_calls = 0;
    bcast_ns = 0;
    run_ns = 0;
    run_bcast_ns = 0;
    run_handle_calls = 0;
  }

let handle_ns_per_call sp =
  if sp.handle_timed = 0 then 0.0
  else float_of_int sp.handle_timed_ns /. float_of_int sp.handle_timed

let estimated_handle_ns sp calls = handle_ns_per_call sp *. float_of_int calls

(* Protocol-step time: every propose, plus the estimated handle time. *)
let step_ns sp = float_of_int sp.propose_ns +. estimated_handle_ns sp sp.handle_calls

(* Engine.run minus the handle and broadcast spans inside it. *)
let engine_self_ns sp =
  float_of_int (sp.run_ns - sp.run_bcast_ns) -. estimated_handle_ns sp sp.run_handle_calls

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Direct recursion rather than closures, so the spans cost their clock
   reads and nothing else. *)
let rec perform sp eng pid = function
  | [] -> ()
  | Core.Ba.Broadcast m :: rest ->
      let t0 = now_ns () in
      Sim.Engine.broadcast eng ~src:pid ~words:(Core.Ba.words_of_msg m) m;
      sp.bcast_ns <- sp.bcast_ns + (now_ns () - t0);
      sp.bcast_calls <- sp.bcast_calls + 1;
      perform sp eng pid rest
  | Core.Ba.Decide _ :: rest -> perform sp eng pid rest

let handle sp eng pid p (e : Core.Ba.msg Sim.Envelope.t) =
  sp.handle_calls <- sp.handle_calls + 1;
  if sp.handle_calls mod handle_sample = 0 then begin
    let t0 = now_ns () in
    let actions = Core.Ba.handle p ~src:e.Sim.Envelope.src e.Sim.Envelope.payload in
    sp.handle_timed_ns <- sp.handle_timed_ns + (now_ns () - t0);
    sp.handle_timed <- sp.handle_timed + 1;
    perform sp eng pid actions
  end
  else perform sp eng pid (Core.Ba.handle p ~src:e.Sim.Envelope.src e.Sim.Envelope.payload)

let apply_corruption eng rng = function
  | Core.Runner.Honest -> ()
  | Core.Runner.Crash_random k ->
      Sim.Faults.crash_all eng (Sim.Faults.choose_random rng ~n:(Sim.Engine.n eng) ~f:k)
  | Core.Runner.Crash_adaptive_first k -> Sim.Faults.adaptive_crash_first_senders eng ~f:k
  | Core.Runner.Byz_silent_random k ->
      let pids = Sim.Faults.choose_random rng ~n:(Sim.Engine.n eng) ~f:k in
      Sim.Faults.byzantine_all eng pids (fun _pid _e -> ())
  | Core.Runner.Custom wire -> wire eng

let run_ba sp ~scheduler ?probe ~corruption ~keyring ~params ~inputs ~seed () :
    Core.Runner.outcome =
  let n = params.Core.Params.n in
  let eng = Sim.Engine.create ~scheduler ~n ~seed () in
  (match probe with Some attach -> attach eng | None -> ());
  let instance = Core.Runner.ba_instance_name ~seed in
  let t0 = now_ns () in
  let ctx = Core.Ba.make_ctx ~keyring ~params () in
  let procs = Array.init n (fun pid -> Core.Ba.create ~ctx ~keyring ~params ~pid ~instance ()) in
  sp.setup_ns <- sp.setup_ns + (now_ns () - t0);
  apply_corruption eng (Crypto.Rng.create (seed lxor 0x5eed)) corruption;
  Array.iteri (fun pid p -> Sim.Engine.set_handler eng pid (handle sp eng pid p)) procs;
  Array.iteri
    (fun pid p ->
      if Sim.Engine.is_correct eng pid then begin
        let t0 = now_ns () in
        let actions = Core.Ba.propose p inputs.(pid) in
        sp.propose_ns <- sp.propose_ns + (now_ns () - t0);
        perform sp eng pid actions
      end)
    procs;
  let all_correct_decided =
    Sim.Engine.all_correct_monotone eng (fun pid -> Core.Ba.decision procs.(pid) <> None)
  in
  let bcast0 = sp.bcast_ns and calls0 = sp.handle_calls in
  let t0 = now_ns () in
  let result = Sim.Engine.run eng ~until:all_correct_decided in
  sp.run_ns <- sp.run_ns + (now_ns () - t0);
  sp.run_bcast_ns <- sp.run_bcast_ns + (sp.bcast_ns - bcast0);
  sp.run_handle_calls <- sp.run_handle_calls + (sp.handle_calls - calls0);
  let decisions =
    List.filter_map
      (fun pid -> Option.map (fun d -> (pid, d)) (Core.Ba.decision procs.(pid)))
      (Sim.Engine.correct_pids eng)
  in
  let agreement =
    match decisions with
    | [] -> true
    | (_, d0) :: rest -> List.for_all (fun (_, d) -> Int.equal d d0) rest
  in
  let rounds =
    List.fold_left
      (fun acc pid ->
        match Core.Ba.decided_round procs.(pid) with Some r -> max acc (r + 1) | None -> acc)
      0 (Sim.Engine.correct_pids eng)
  in
  let m = Sim.Engine.metrics eng in
  {
    Core.Runner.n;
    decisions;
    all_decided = all_correct_decided ();
    agreement;
    rounds;
    words = m.Sim.Metrics.correct_words;
    msgs = m.Sim.Metrics.correct_msgs;
    depth = Sim.Engine.max_correct_depth eng;
    vtime = Sim.Engine.now eng;
    steps = Sim.Engine.step eng;
    result;
  }
