type outcome = {
  decisions : (int * int) list;
  all_decided : bool;
  agreement : bool;
  rounds : int;
  words : int;
  msgs : int;
  depth : int;
  steps : int;
  result : Sim.Engine.run_result;
}

(* One generic execution loop shared by all baselines: protocols differ
   only in their state/message/action types, abstracted by closures. *)
let run_generic (type st msg) ?scheduler ?(pre_crash = []) ?max_steps
    ?(probe : (msg Sim.Engine.t -> unit) option) ~n ~seed
    ~(create : pid:int -> st) ~(propose : st -> int -> 'a list)
    ~(handle : st -> src:int -> msg -> 'a list)
    ~(classify : 'a -> [ `Broadcast of msg | `Decide of int ]) ~(words : msg -> int)
    ~(decision : st -> int option) ~(decided_round : st -> int option) ~(inputs : int array) ()
    : outcome =
  if Array.length inputs <> n then invalid_arg "Brun.run: need one input per process";
  let eng : msg Sim.Engine.t = Sim.Engine.create ?scheduler ~n ~seed () in
  (* The probe attaches observers (word-complexity ledger, traces) before
     any send — the same hook point Core.Runner exposes. *)
  (match probe with Some f -> f eng | None -> ());
  let procs = Array.init n (fun pid -> create ~pid) in
  let perform pid actions =
    List.iter
      (fun a ->
        match classify a with
        | `Broadcast m -> Sim.Engine.broadcast eng ~src:pid ~words:(words m) m
        | `Decide _ -> ())
      actions
  in
  Sim.Faults.crash_all eng pre_crash;
  Array.iteri
    (fun pid p ->
      Sim.Engine.set_handler eng pid (fun e ->
          perform pid (handle p ~src:e.Sim.Envelope.src e.Sim.Envelope.payload)))
    procs;
  Array.iteri
    (fun pid p ->
      if Sim.Engine.is_correct eng pid then perform pid (propose p inputs.(pid)))
    procs;
  (* Amortized-O(1) termination check (see Engine.all_correct_monotone):
     a fresh [correct_pids] scan per delivery would be O(n^2) overall,
     swamping the quadratic baselines at bench scale. *)
  let all_correct_decided =
    Sim.Engine.all_correct_monotone eng (fun pid -> decision procs.(pid) <> None)
  in
  let result = Sim.Engine.run ?max_steps eng ~until:all_correct_decided in
  let decisions =
    List.filter_map
      (fun pid -> Option.map (fun d -> (pid, d)) (decision procs.(pid)))
      (Sim.Engine.correct_pids eng)
  in
  let agreement =
    match decisions with
    | [] -> true
    | (_, d0) :: rest -> List.for_all (fun (_, d) -> d = d0) rest
  in
  let rounds =
    List.fold_left
      (fun acc pid ->
        match decided_round procs.(pid) with Some r -> max acc (r + 1) | None -> acc)
      0
      (Sim.Engine.correct_pids eng)
  in
  let m = Sim.Engine.metrics eng in
  {
    decisions;
    all_decided = all_correct_decided ();
    agreement;
    rounds;
    words = m.Sim.Metrics.correct_words;
    msgs = m.Sim.Metrics.correct_msgs;
    depth = Sim.Engine.max_correct_depth eng;
    steps = Sim.Engine.step eng;
    result;
  }

let run_benor ?scheduler ?pre_crash ?max_steps ?probe ~n ~f ~inputs ~seed () =
  run_generic ?scheduler ?pre_crash ?max_steps ?probe ~n ~seed
    ~create:(fun ~pid -> Benor.create ~n ~f ~pid ~coin_seed:seed)
    ~propose:Benor.propose
    ~handle:Benor.handle
    ~classify:(function Benor.Broadcast m -> `Broadcast m | Benor.Decide d -> `Decide d)
    ~words:Benor.words_of_msg ~decision:Benor.decision ~decided_round:Benor.decided_round
    ~inputs ()

let run_bracha ?scheduler ?pre_crash ?max_steps ?probe ~n ~f ~inputs ~seed () =
  run_generic ?scheduler ?pre_crash ?max_steps ?probe ~n ~seed
    ~create:(fun ~pid -> Bracha.create ~n ~f ~pid ~coin_seed:seed)
    ~propose:Bracha.propose
    ~handle:Bracha.handle
    ~classify:(function Bracha.Broadcast m -> `Broadcast m | Bracha.Decide d -> `Decide d)
    ~words:Bracha.words_of_msg ~decision:Bracha.decision ~decided_round:Bracha.decided_round
    ~inputs ()

let run_rabin ?scheduler ?pre_crash ?max_steps ?probe ~n ~f ~inputs ~seed () =
  let dealer = Rabin.make_dealer ~n ~f ~seed:(string_of_int seed) in
  run_generic ?scheduler ?pre_crash ?max_steps ?probe ~n ~seed
    ~create:(fun ~pid -> Rabin.create ~dealer ~pid)
    ~propose:Rabin.propose
    ~handle:Rabin.handle
    ~classify:(function Rabin.Broadcast m -> `Broadcast m | Rabin.Decide d -> `Decide d)
    ~words:Rabin.words_of_msg ~decision:Rabin.decision ~decided_round:Rabin.decided_round
    ~inputs ()

let run_mmr ?scheduler ?pre_crash ?max_steps ?probe ~coin ~n ~f ~inputs ~seed () =
  run_generic ?scheduler ?pre_crash ?max_steps ?probe ~n ~seed
    ~create:(fun ~pid -> Mmr.create ~n ~f ~pid ~instance:(Printf.sprintf "mmr-%d" seed) ~coin)
    ~propose:Mmr.propose
    ~handle:Mmr.handle
    ~classify:(function Mmr.Broadcast m -> `Broadcast m | Mmr.Decide d -> `Decide d)
    ~words:Mmr.words_of_msg ~decision:Mmr.decision ~decided_round:Mmr.decided_round
    ~inputs ()
