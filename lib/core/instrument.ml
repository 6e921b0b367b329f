let attach_ba eng ~metrics =
  Obs.Bridge.attach eng ~metrics ~tag_of:Ba.tag_of_msg
    ~round_of:(fun m -> Some (Ba.round_of_msg m))
    ()

(* The ledger attachment: the flat word-complexity accumulator, tagged
   with the same phase names the metrics bridge uses so the two views
   line up. *)
let attach_ba_ledger eng ledger =
  Sim.Ledger.attach eng ledger ~tag_of:Ba.tag_of_msg ~round_of:Ba.round_of_msg ()

let params_json (p : Params.t) =
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int p.Params.n);
      ("f", Obs.Json.Int p.Params.f);
      ("epsilon", Obs.Json.Float p.Params.epsilon);
      ("d", Obs.Json.Float p.Params.d);
      ("lambda", Obs.Json.Int p.Params.lambda);
      ("w", Obs.Json.Int p.Params.w);
      ("b", Obs.Json.Int p.Params.b);
    ]

let run_result_json = function
  | Sim.Engine.All_done -> Obs.Json.Str "all_done"
  | Sim.Engine.Quiescent -> Obs.Json.Str "quiescent"
  | Sim.Engine.Step_limit -> Obs.Json.Str "step_limit"

let outcome_json (o : Runner.outcome) =
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int o.Runner.n);
      ("decided", Obs.Json.Int (List.length o.Runner.decisions));
      ("all_decided", Obs.Json.Bool o.Runner.all_decided);
      ("agreement", Obs.Json.Bool o.Runner.agreement);
      ("rounds", Obs.Json.Int o.Runner.rounds);
      ("words", Obs.Json.Int o.Runner.words);
      ("msgs", Obs.Json.Int o.Runner.msgs);
      ("depth", Obs.Json.Int o.Runner.depth);
      ("vtime", Obs.Json.Float o.Runner.vtime);
      ("steps", Obs.Json.Int o.Runner.steps);
      ("result", run_result_json o.Runner.result);
    ]

(* ------------------------- ledger documents -------------------------- *)

let cell_fields (c : Sim.Ledger.cell) =
  [
    ("correct_msgs", Obs.Json.Int c.Sim.Ledger.correct_msgs);
    ("correct_words", Obs.Json.Int c.Sim.Ledger.correct_words);
    ("byz_msgs", Obs.Json.Int c.Sim.Ledger.byz_msgs);
    ("byz_words", Obs.Json.Int c.Sim.Ledger.byz_words);
    ("delivered", Obs.Json.Int c.Sim.Ledger.delivered);
  ]

let cell_json c = Obs.Json.Obj (cell_fields c)

(* One sweep entry: grand total plus the per-round breakdown, each round
   carrying its per-phase cells.  Zero cells are skipped (the ledger's
   fold already does), so documents stay proportional to activity, not to
   phase-count x round-count. *)
let ledger_json ~protocol ~n ?(extra = []) ledger =
  let rounds =
    (* fold visits rounds ascending, phases first-seen within a round —
       collect per-round phase lists in that order. *)
    let by_round =
      Sim.Ledger.fold ledger ~init:[] ~f:(fun acc ~phase ~round cell ->
          match acc with
          | (r, cells) :: rest when r = round -> (r, (phase, cell) :: cells) :: rest
          | _ -> (round, [ (phase, cell) ]) :: acc)
    in
    List.rev_map
      (fun (round, rev_cells) ->
        let cells = List.rev rev_cells in
        let total =
          List.fold_left
            (fun acc (_, c) -> Sim.Ledger.add_cell acc c)
            Sim.Ledger.zero_cell cells
        in
        Obs.Json.Obj
          (("round", Obs.Json.Int round)
           :: cell_fields total
          @ [
              ( "phases",
                Obs.Json.List
                  (List.map
                     (fun (phase, c) ->
                       Obs.Json.Obj (("phase", Obs.Json.Str phase) :: cell_fields c))
                     cells) );
            ]))
      by_round
  in
  Obs.Json.Obj
    ([ ("protocol", Obs.Json.Str protocol); ("n", Obs.Json.Int n) ]
    @ extra
    @ [ ("total", cell_json (Sim.Ledger.total ledger)); ("rounds", Obs.Json.List rounds) ])

let ledger_doc ?(extra = []) entries =
  Obs.Json.Obj
    (("schema", Obs.Json.Str Obs.Export.ledger_schema)
     :: extra
    @ [ ("sweep", Obs.Json.List entries) ])

let metrics_schema = "coincidence.metrics/1"

let metrics_doc ~params ?(outcomes = []) ?(spans = []) ~metrics () =
  let span_records = List.concat_map (fun s -> Obs.Json.to_list (Obs.Span.to_json s)) spans in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str metrics_schema);
      ("params", params_json params);
      ("runs", Obs.Json.List outcomes);
      ("metrics", Obs.Metrics.to_json metrics);
      ("spans", Obs.Json.List span_records);
    ]
