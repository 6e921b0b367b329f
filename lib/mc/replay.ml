(* Counterexample replay: turn a checker trace into a concrete
   Sim.Engine schedule and re-run the real step functions under it, so
   a violation is a reproducible simulator seed rather than a one-off
   search artifact.  The trace's per-link sequence numbers line up with
   the engine because the checker advances its send counters exactly as
   the engine does — one tick per (src, dst) pair per broadcast, in
   destination order, horizon-pruned messages included. *)

type spec = {
  sp_protocol : string;
  sp_n : int;
  sp_f : int;
  sp_coin : bool;
  sp_byz : int option;
  sp_active_byz : bool;
  sp_max_rounds : int;
  sp_fifo : bool;
  sp_inputs : int array;
  sp_invariant : string;
  sp_detail : string;
  sp_trace : Search.event list;
}

let spec_of_violation ~protocol (cfg : Search.config) (v : Search.violation) =
  {
    sp_protocol = protocol;
    sp_n = cfg.Search.n;
    sp_f = cfg.Search.f;
    sp_coin = cfg.Search.coin;
    sp_byz = cfg.Search.byz;
    sp_active_byz = cfg.Search.active_byz;
    sp_max_rounds = cfg.Search.max_rounds;
    sp_fifo = cfg.Search.fifo;
    sp_inputs = v.Search.v_inputs;
    sp_invariant = v.Search.v_invariant;
    sp_detail = v.Search.v_detail;
    sp_trace = v.Search.v_trace;
  }

(* ------------------------------- JSON -------------------------------- *)

let schema = "coincidence.check/1"

let to_json spec =
  let open Obs.Json in
  let event = function
    | Search.Deliver { src; dst; seq } ->
        Obj [ ("t", Str "deliver"); ("src", Int src); ("dst", Int dst); ("seq", Int seq) ]
    | Search.Inject { dst; alt } -> Obj [ ("t", Str "inject"); ("dst", Int dst); ("alt", Int alt) ]
  in
  Obj
    [
      ("schema", Str schema);
      ("protocol", Str spec.sp_protocol);
      ("n", Int spec.sp_n);
      ("f", Int spec.sp_f);
      ("coin", Int (if spec.sp_coin then 1 else 0));
      ("byz", match spec.sp_byz with None -> Null | Some b -> Int b);
      ("active_byz", Bool spec.sp_active_byz);
      ("max_rounds", Int spec.sp_max_rounds);
      ("fifo", Bool spec.sp_fifo);
      ("inputs", List (Array.to_list (Array.map (fun v -> Int v) spec.sp_inputs)));
      ("invariant", Str spec.sp_invariant);
      ("detail", Str spec.sp_detail);
      ("trace", List (List.map event spec.sp_trace));
    ]

let of_json j =
  let open Obs.Json in
  let ( let* ) r f = Result.bind r f in
  let int_field name =
    match Option.bind (member name j) to_int_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: missing or non-integer %S" schema name)
  in
  let str_field name =
    match Option.bind (member name j) to_string_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: missing or non-string %S" schema name)
  in
  let bool_field name =
    match member name j with
    | Some (Bool b) -> Ok b
    | _ -> Error (Printf.sprintf "%s: missing or non-boolean %S" schema name)
  in
  let* s = str_field "schema" in
  let* () = if String.equal s schema then Ok () else Error ("unexpected schema " ^ s) in
  let* protocol = str_field "protocol" in
  let* n = int_field "n" in
  let* f = int_field "f" in
  let* coin = int_field "coin" in
  let* byz =
    match member "byz" j with
    | Some Null | None -> Ok None
    | Some v -> (
        match to_int_opt v with
        | Some b -> Ok (Some b)
        | None -> Error (schema ^ ": non-integer \"byz\""))
  in
  let* active_byz = bool_field "active_byz" in
  let* max_rounds = int_field "max_rounds" in
  let* fifo = bool_field "fifo" in
  let* inputs =
    match member "inputs" j with
    | Some (List vs) ->
        let ints = List.filter_map to_int_opt vs in
        if List.length ints = List.length vs && List.length ints = n then
          Ok (Array.of_list ints)
        else Error (schema ^ ": \"inputs\" must be n integers")
    | _ -> Error (schema ^ ": missing \"inputs\" array")
  in
  let* invariant = str_field "invariant" in
  let* detail = str_field "detail" in
  let* trace =
    match member "trace" j with
    | Some (List evs) ->
        let parse ev =
          let fld name = Option.bind (member name ev) to_int_opt in
          match Option.bind (member "t" ev) to_string_opt with
          | Some "deliver" -> (
              match (fld "src", fld "dst", fld "seq") with
              | Some src, Some dst, Some seq -> Some (Search.Deliver { src; dst; seq })
              | _ -> None)
          | Some "inject" -> (
              match (fld "dst", fld "alt") with
              | Some dst, Some alt -> Some (Search.Inject { dst; alt })
              | _ -> None)
          | _ -> None
        in
        let parsed = List.filter_map parse evs in
        if List.length parsed = List.length evs then Ok parsed
        else Error (schema ^ ": malformed \"trace\" event")
    | _ -> Error (schema ^ ": missing \"trace\" array")
  in
  if n <= 0 || n > 16 then Error (schema ^ ": n out of range")
  else if f < 0 || f >= n then Error (schema ^ ": f out of range")
  else
    Ok
      {
        sp_protocol = protocol;
        sp_n = n;
        sp_f = f;
        sp_coin = coin <> 0;
        sp_byz = byz;
        sp_active_byz = active_byz;
        sp_max_rounds = max_rounds;
        sp_fifo = fifo;
        sp_inputs = inputs;
        sp_invariant = invariant;
        sp_detail = detail;
        sp_trace = trace;
      }

(* ------------------------------ driving ------------------------------- *)

type outcome = { o_steps : int; o_decisions : int option array; o_reproduced : bool }

module Drive (P : Search.PROTO) = struct
  let run spec =
    let n = spec.sp_n in
    let is_correct pid = match spec.sp_byz with Some b -> pid <> b | None -> true in
    (* Index the trace: delivery events by (src, dst, seq); injections by
       (dst, k) where k counts the byz process's sends to dst — the
       setup below emits them in trace order, so per-dst orders agree. *)
    let deliver_pos : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
    let inject_pos : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
    let inj_seen : (int, int) Hashtbl.t = Hashtbl.create 8 in
    List.iteri
      (fun i ev ->
        match ev with
        | Search.Deliver { src; dst; seq } -> Hashtbl.replace deliver_pos (src, dst, seq) i
        | Search.Inject { dst; alt = _ } ->
            let k = Option.value (Hashtbl.find_opt inj_seen dst) ~default:0 in
            Hashtbl.replace inj_seen dst (k + 1);
            Hashtbl.replace inject_pos (dst, k) i)
      spec.sp_trace;
    (* The trace position becomes the absolute delivery time; messages
       the trace never delivers are parked far in the future and cut off
       by max_steps.  The engine calls the latency function once per
       (src, dst) per broadcast, in destination order at send time — the
       same counting the checker does. *)
    let sends = Array.make (n * n) 0 in
    let byz_sends : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let parked = ref 0 in
    let park now =
      incr parked;
      1e6 +. float_of_int !parked -. now
    in
    let latency ~rng:_ ~now ~step:_ ~src ~dst ~payload:_ =
      let from_byz = match spec.sp_byz with Some b -> src = b | None -> false in
      if from_byz then begin
        let k = Option.value (Hashtbl.find_opt byz_sends dst) ~default:0 in
        Hashtbl.replace byz_sends dst (k + 1);
        match Hashtbl.find_opt inject_pos (dst, k) with
        | Some pos -> float_of_int pos -. now
        | None -> park now
      end
      else begin
        let cell = (src * n) + dst in
        let seq = sends.(cell) in
        sends.(cell) <- seq + 1;
        match Hashtbl.find_opt deliver_pos (src, dst, seq) with
        | Some pos -> float_of_int pos -. now
        | None -> park now
      end
    in
    let eng = Sim.Engine.create ~scheduler:(Sim.Scheduler.custom latency) ~n ~seed:1 () in
    let procs = Array.init n (fun pid -> P.create ~n ~f:spec.sp_f ~coin:spec.sp_coin ~pid) in
    let observed = ref None in
    let emit pid msgs = List.iter (fun m -> Sim.Engine.broadcast eng ~src:pid ~words:1 m) msgs in
    for pid = 0 to n - 1 do
      if is_correct pid then
        Sim.Engine.set_handler eng pid (fun env ->
            let st = procs.(pid) in
            let old_dec = P.decision st in
            let old_round = P.round st in
            let out = P.handle st ~src:env.Sim.Envelope.src env.Sim.Envelope.payload in
            (match (old_dec, P.decision st) with
            | Some v, Some v' when v <> v' -> observed := Some "revocation"
            | Some _, None -> observed := Some "revocation"
            | _ -> ());
            if P.round st < old_round then observed := Some "round-monotonic";
            emit pid out)
    done;
    (match spec.sp_byz with
    | Some b ->
        Sim.Engine.corrupt_byzantine eng b (fun _ -> ());
        if spec.sp_active_byz then begin
          let alphabet =
            Array.of_list (P.alphabet ~n ~f:spec.sp_f ~byz:b ~max_round:spec.sp_max_rounds)
          in
          List.iter
            (function
              | Search.Inject { dst; alt } ->
                  if alt >= 0 && alt < Array.length alphabet then
                    Sim.Engine.send eng ~src:b ~dst ~words:1 alphabet.(alt)
              | Search.Deliver _ -> ())
            spec.sp_trace
        end
    | None -> ());
    for pid = 0 to n - 1 do
      if is_correct pid then emit pid (P.propose procs.(pid) spec.sp_inputs.(pid))
    done;
    let steps = List.length spec.sp_trace in
    (match Sim.Engine.run eng ~max_steps:steps ~until:(fun () -> false) with
    | Sim.Engine.All_done | Sim.Engine.Quiescent | Sim.Engine.Step_limit -> ());
    let decisions =
      Array.init n (fun pid -> if is_correct pid then P.decision procs.(pid) else None)
    in
    let unanimous =
      let v = ref None and mixed = ref false in
      for pid = 0 to n - 1 do
        if is_correct pid then
          match !v with
          | None -> v := Some spec.sp_inputs.(pid)
          | Some v0 -> if v0 <> spec.sp_inputs.(pid) then mixed := true
      done;
      if !mixed then None else !v
    in
    let reproduced =
      match spec.sp_invariant with
      | "agreement" ->
          let decided = ref [] in
          Array.iter (function Some v -> decided := v :: !decided | None -> ()) decisions;
          List.length (List.sort_uniq Int.compare !decided) > 1
      | "validity" -> (
          match unanimous with
          | Some v -> Array.exists (function Some d -> d <> v | None -> false) decisions
          | None -> false)
      | "terminal-decision" -> (
          match unanimous with
          | Some _ ->
              let undecided = ref false in
              Array.iteri
                (fun pid d -> if is_correct pid && d = None then undecided := true)
                decisions;
              !undecided
          | None -> false)
      | inv -> ( match !observed with Some o -> String.equal o inv | None -> false)
    in
    { o_steps = Sim.Engine.step eng; o_decisions = decisions; o_reproduced = reproduced }
end
