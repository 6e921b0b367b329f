type corruption =
  | Honest
  | Crash_random of int
  | Crash_adaptive_first of int
  | Byz_silent_random of int
  | Custom of (Ba.msg Sim.Engine.t -> unit)

type outcome = {
  n : int;
  decisions : (int * int) list;
  all_decided : bool;
  agreement : bool;
  rounds : int;
  words : int;
  msgs : int;
  depth : int;
  vtime : float;
  steps : int;
  result : Sim.Engine.run_result;
}

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<h>decided=%d/%d agreement=%b rounds=%d words=%d msgs=%d depth=%d steps=%d@]"
    (List.length o.decisions)
    o.n o.agreement o.rounds o.words o.msgs o.depth o.steps

(* Perform the action lists coming out of a state machine: broadcasts go to
   the wire; other effects are recorded by the caller-provided sink.
   Actions can cascade (a broadcast delivered to self later triggers more),
   but the engine mediates all of that — here we only emit.  Direct
   recursion: this runs once per delivery, and an empty list must cost no
   closure. *)
let rec perform_ba eng pid = function
  | [] -> ()
  | Ba.Broadcast m :: rest ->
      Sim.Engine.broadcast eng ~src:pid ~words:(Ba.words_of_msg m) m;
      perform_ba eng pid rest
  | Ba.Decide _ :: rest -> perform_ba eng pid rest

let apply_corruption eng rng = function
  | Honest -> ()
  | Crash_random k ->
      Sim.Faults.crash_all eng (Sim.Faults.choose_random rng ~n:(Sim.Engine.n eng) ~f:k)
  | Crash_adaptive_first k -> Sim.Faults.adaptive_crash_first_senders eng ~f:k
  | Byz_silent_random k ->
      let pids = Sim.Faults.choose_random rng ~n:(Sim.Engine.n eng) ~f:k in
      Sim.Faults.byzantine_all eng pids (fun _pid _e -> ())
  | Custom wire -> wire eng

let ba_instance_name ~seed = Printf.sprintf "ba-%d" seed

let run_ba ?scheduler ?probe ?(corruption = Honest) ?max_steps ~keyring ~params ~inputs ~seed () =
  let n = params.Params.n in
  if Array.length inputs <> n then invalid_arg "Runner.run_ba: need one input per process";
  let eng = Sim.Engine.create ?scheduler ~n ~seed () in
  (match probe with Some attach -> attach eng | None -> ());
  let instance = ba_instance_name ~seed in
  (* One shared context for the whole run: ground-truth committee
     directory + validation memos (see {!Ba.make_ctx}). *)
  let ctx = Ba.make_ctx ~keyring ~params () in
  let procs =
    Array.init n (fun pid -> Ba.create ~ctx ~keyring ~params ~pid ~instance ())
  in
  let corruption_rng = Crypto.Rng.create (seed lxor 0x5eed) in
  apply_corruption eng corruption_rng corruption;
  Array.iteri
    (fun pid p ->
      Sim.Engine.set_handler eng pid (fun e ->
          perform_ba eng pid (Ba.handle p ~src:e.Sim.Envelope.src e.Sim.Envelope.payload)))
    procs;
  (* Initial proposals (only correct processes act; the engine silently
     drops sends from crashed ones). *)
  Array.iteri
    (fun pid p -> if Sim.Engine.is_correct eng pid then perform_ba eng pid (Ba.propose p inputs.(pid)))
    procs;
  (* Amortized-O(1) termination check: the naive [correct_pids] scan is
     O(n) per delivery, which at n = 10^4 dwarfs the protocol itself. *)
  let all_correct_decided =
    Sim.Engine.all_correct_monotone eng (fun pid -> Option.is_some (Ba.decision procs.(pid)))
  in
  let result = Sim.Engine.run ?max_steps eng ~until:all_correct_decided in
  let decisions =
    List.filter_map
      (fun pid -> Option.map (fun d -> (pid, d)) (Ba.decision procs.(pid)))
      (Sim.Engine.correct_pids eng)
  in
  let agreement =
    match decisions with
    | [] -> true
    | (_, d0) :: rest -> List.for_all (fun (_, d) -> d = d0) rest
  in
  let rounds =
    List.fold_left
      (fun acc pid -> match Ba.decided_round procs.(pid) with Some r -> max acc (r + 1) | None -> acc)
      0
      (Sim.Engine.correct_pids eng)
  in
  let m = Sim.Engine.metrics eng in
  {
    n;
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

type coin_outcome = {
  outputs : (int * int) list;
  unanimous : int option;
  coin_words : int;
  coin_depth : int;
  coin_result : Sim.Engine.run_result;
}

let coin_outcome_of eng outputs result =
  let outs =
    List.filter_map
      (fun pid -> Option.map (fun b -> (pid, b)) outputs.(pid))
      (Sim.Engine.correct_pids eng)
  in
  let unanimous =
    match outs with
    | [] -> None
    | (_, b0) :: rest -> if List.for_all (fun (_, b) -> b = b0) rest then Some b0 else None
  in
  let m = Sim.Engine.metrics eng in
  {
    outputs = outs;
    unanimous;
    coin_words = m.Sim.Metrics.correct_words;
    coin_depth = Sim.Engine.max_correct_depth eng;
    coin_result = result;
  }

let run_shared_coin ?scheduler ?probe ?(pre_corrupt = []) ?corrupt_engine ~keyring ~n ~f ~round ~seed () =
  let eng = Sim.Engine.create ?scheduler ~n ~seed () in
  (match probe with Some attach -> attach eng | None -> ());
  let instance = Printf.sprintf "coin-%d" seed in
  let procs = Array.init n (fun pid -> Coin.create ~keyring ~n ~f ~pid ~instance ~round) in
  let outputs = Array.make n None in
  let perform pid actions =
    List.iter
      (function
        | Coin.Broadcast m -> Sim.Engine.broadcast eng ~src:pid ~words:(Coin.words_of_msg m) m
        | Coin.Return b -> outputs.(pid) <- Some b)
      actions
  in
  Sim.Faults.crash_all eng pre_corrupt;
  (match corrupt_engine with Some wire -> wire eng | None -> ());
  Array.iteri
    (fun pid p ->
      Sim.Engine.set_handler eng pid (fun e ->
          perform pid (Coin.handle p ~src:e.Sim.Envelope.src e.Sim.Envelope.payload)))
    procs;
  Array.iteri
    (fun pid p -> if Sim.Engine.is_correct eng pid then perform pid (Coin.start p))
    procs;
  let all_returned = Sim.Engine.all_correct_monotone eng (fun pid -> Option.is_some outputs.(pid)) in
  let result = Sim.Engine.run eng ~until:all_returned in
  coin_outcome_of eng outputs result

let run_whp_coin ?scheduler ?probe ?(pre_corrupt = []) ?corrupt_engine ~keyring ~params ~round ~seed () =
  let n = params.Params.n in
  let eng = Sim.Engine.create ?scheduler ~n ~seed () in
  (match probe with Some attach -> attach eng | None -> ());
  let instance = Printf.sprintf "whpcoin-%d" seed in
  let dir = Sample.Directory.create keyring ~lambda:params.Params.lambda in
  let cache = Whp_coin.cache () in
  let procs =
    Array.init n (fun pid -> Whp_coin.create ~dir ~cache ~keyring ~params ~pid ~instance ~round ())
  in
  let outputs = Array.make n None in
  let perform pid actions =
    List.iter
      (function
        | Whp_coin.Broadcast m -> Sim.Engine.broadcast eng ~src:pid ~words:(Whp_coin.words_of_msg m) m
        | Whp_coin.Return b -> outputs.(pid) <- Some b)
      actions
  in
  Sim.Faults.crash_all eng pre_corrupt;
  (match corrupt_engine with Some wire -> wire eng | None -> ());
  Array.iteri
    (fun pid p ->
      Sim.Engine.set_handler eng pid (fun e ->
          perform pid (Whp_coin.handle p ~src:e.Sim.Envelope.src e.Sim.Envelope.payload)))
    procs;
  Array.iteri
    (fun pid p -> if Sim.Engine.is_correct eng pid then perform pid (Whp_coin.start p))
    procs;
  let all_returned = Sim.Engine.all_correct_monotone eng (fun pid -> Option.is_some outputs.(pid)) in
  let result = Sim.Engine.run eng ~until:all_returned in
  coin_outcome_of eng outputs result

type approver_outcome = {
  returned : (int * int list) list;
  approver_words : int;
  approver_result : Sim.Engine.run_result;
}

let run_approver ?scheduler ?probe ?(pre_corrupt = []) ~keyring ~params ~inputs ~seed () =
  let n = params.Params.n in
  if Array.length inputs <> n then invalid_arg "Runner.run_approver: need one input per process";
  let eng = Sim.Engine.create ?scheduler ~n ~seed () in
  (match probe with Some attach -> attach eng | None -> ());
  let instance = Printf.sprintf "approver-%d" seed in
  let dir = Sample.Directory.create keyring ~lambda:params.Params.lambda in
  let cache = Approver.cache () in
  let procs =
    Array.init n (fun pid -> Approver.create ~dir ~cache ~keyring ~params ~pid ~instance ())
  in
  let returned = Array.make n None in
  let perform pid actions =
    List.iter
      (function
        | Approver.Broadcast m ->
            Sim.Engine.broadcast eng ~src:pid ~words:(Approver.words_of_msg m) m
        | Approver.Deliver vs -> returned.(pid) <- Some vs)
      actions
  in
  Sim.Faults.crash_all eng pre_corrupt;
  Array.iteri
    (fun pid p ->
      Sim.Engine.set_handler eng pid (fun e ->
          perform pid (Approver.handle p ~src:e.Sim.Envelope.src e.Sim.Envelope.payload)))
    procs;
  Array.iteri
    (fun pid p ->
      if Sim.Engine.is_correct eng pid then perform pid (Approver.input p inputs.(pid)))
    procs;
  let all_returned = Sim.Engine.all_correct_monotone eng (fun pid -> Option.is_some returned.(pid)) in
  let result = Sim.Engine.run eng ~until:all_returned in
  let rets =
    List.filter_map
      (fun pid -> Option.map (fun vs -> (pid, vs)) returned.(pid))
      (Sim.Engine.correct_pids eng)
  in
  let m = Sim.Engine.metrics eng in
  { returned = rets; approver_words = m.Sim.Metrics.correct_words; approver_result = result }
