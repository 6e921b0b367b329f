(* The word-complexity ledger: accumulator arithmetic, attachment
   passivity (fixed-seed runs are byte-identical with the ledger on or
   off), agreement with the engine's own Sim.Metrics accounting, the
   baseline tag functions, and the coincidence.ledger/1 document
   validator. *)

let n = 16
let params = lazy (Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n ())
let keyring = lazy (Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"ledger-test" ())

let run_ba ?probe ~seed () =
  let inputs = Array.init n (fun p -> (p + seed) mod 2) in
  Core.Runner.run_ba ?probe ~keyring:(Lazy.force keyring) ~params:(Lazy.force params) ~inputs
    ~seed ()

(* --------------------------- accumulator ----------------------------- *)

let test_record_and_read () =
  let l = Sim.Ledger.create () in
  Alcotest.(check int) "empty max_round" (-1) (Sim.Ledger.max_round l);
  Alcotest.(check bool) "empty total is zero" true
    (Sim.Ledger.is_zero_cell (Sim.Ledger.total l));
  Sim.Ledger.record_send l ~phase:"A" ~round:0 ~correct:true ~words:3;
  Sim.Ledger.record_send l ~phase:"A" ~round:0 ~correct:true ~words:5;
  Sim.Ledger.record_send l ~phase:"A" ~round:0 ~correct:false ~words:7;
  Sim.Ledger.record_delivery l ~phase:"A" ~round:0;
  Sim.Ledger.record_send l ~phase:"B" ~round:2 ~correct:true ~words:1;
  let a0 = Sim.Ledger.cell l ~phase:"A" ~round:0 in
  Alcotest.(check int) "correct msgs" 2 a0.Sim.Ledger.correct_msgs;
  Alcotest.(check int) "correct words" 8 a0.Sim.Ledger.correct_words;
  Alcotest.(check int) "byz msgs" 1 a0.Sim.Ledger.byz_msgs;
  Alcotest.(check int) "byz words" 7 a0.Sim.Ledger.byz_words;
  Alcotest.(check int) "delivered" 1 a0.Sim.Ledger.delivered;
  Alcotest.(check bool) "unknown coordinate is zero" true
    (Sim.Ledger.is_zero_cell (Sim.Ledger.cell l ~phase:"A" ~round:1));
  Alcotest.(check bool) "unknown phase is zero" true
    (Sim.Ledger.is_zero_cell (Sim.Ledger.cell l ~phase:"nope" ~round:0));
  Alcotest.(check int) "max_round" 2 (Sim.Ledger.max_round l);
  Alcotest.(check (list string)) "phases first-seen" [ "A"; "B" ] (Sim.Ledger.phases l);
  let t = Sim.Ledger.total l in
  Alcotest.(check int) "total correct words" 9 t.Sim.Ledger.correct_words;
  Alcotest.(check int) "total msgs" 3 t.Sim.Ledger.correct_msgs;
  let r0 = Sim.Ledger.round_total l 0 in
  Alcotest.(check int) "round 0 total" 8 r0.Sim.Ledger.correct_words;
  (* negative rounds clamp to 0 *)
  Sim.Ledger.record_send l ~phase:"A" ~round:(-3) ~correct:true ~words:100;
  Alcotest.(check int) "negative round clamps" 108
    (Sim.Ledger.cell l ~phase:"A" ~round:0).Sim.Ledger.correct_words;
  (* a phase is found by value, not only by pointer: a copy of the tag
     built at run time records into and reads the same phase *)
  let a = String.make 1 'A' in
  Sim.Ledger.record_delivery l ~phase:a ~round:0;
  Alcotest.(check int) "a copy of a tag finds its phase" 2
    (Sim.Ledger.cell l ~phase:a ~round:0).Sim.Ledger.delivered;
  Alcotest.(check (list string)) "a copy adds no phase" [ "A"; "B" ] (Sim.Ledger.phases l);
  (* reset zeroes counts, keeps interned phases *)
  Sim.Ledger.reset l;
  Alcotest.(check bool) "reset zeroes" true (Sim.Ledger.is_zero_cell (Sim.Ledger.total l));
  Alcotest.(check (list string)) "reset keeps phases" [ "A"; "B" ] (Sim.Ledger.phases l)

(* The broadcast fast path: one [record_send_many] call must be
   cell-for-cell identical to [count] repeated [record_send] calls. *)
let test_record_send_many () =
  let many = Sim.Ledger.create () and one_by_one = Sim.Ledger.create () in
  List.iter
    (fun (phase, round, correct, words, count) ->
      Sim.Ledger.record_send_many many ~phase ~round ~correct ~words ~count;
      for _ = 1 to count do
        Sim.Ledger.record_send one_by_one ~phase ~round ~correct ~words
      done)
    [
      ("INIT", 0, true, 3, 16);
      ("INIT", 0, false, 3, 5);
      ("ECHO", 2, true, 1, 64);
      ("ECHO", -1, true, 2, 7);
      ("OK", 1, true, 4, 0);
    ];
  Alcotest.(check (list string)) "same phases" (Sim.Ledger.phases one_by_one)
    (Sim.Ledger.phases many);
  Alcotest.(check int) "same max_round" (Sim.Ledger.max_round one_by_one)
    (Sim.Ledger.max_round many);
  List.iter
    (fun phase ->
      for round = 0 to Sim.Ledger.max_round many do
        let a = Sim.Ledger.cell many ~phase ~round in
        let b = Sim.Ledger.cell one_by_one ~phase ~round in
        Alcotest.(check bool) (Printf.sprintf "%s/%d identical" phase round) true (a = b)
      done)
    (Sim.Ledger.phases many)

(* Rounds far beyond the initial capacity must restride correctly: the
   per-phase blocks move, the counts must not. *)
let test_round_growth () =
  let l = Sim.Ledger.create () in
  Sim.Ledger.record_send l ~phase:"P" ~round:0 ~correct:true ~words:1;
  Sim.Ledger.record_send l ~phase:"Q" ~round:1 ~correct:true ~words:2;
  Sim.Ledger.record_send l ~phase:"P" ~round:100 ~correct:true ~words:3;
  Alcotest.(check int) "old cell survives growth" 1
    (Sim.Ledger.cell l ~phase:"P" ~round:0).Sim.Ledger.correct_words;
  Alcotest.(check int) "other phase survives growth" 2
    (Sim.Ledger.cell l ~phase:"Q" ~round:1).Sim.Ledger.correct_words;
  Alcotest.(check int) "grown cell" 3
    (Sim.Ledger.cell l ~phase:"P" ~round:100).Sim.Ledger.correct_words;
  Alcotest.(check int) "max_round after growth" 100 (Sim.Ledger.max_round l)

(* A round number is read from a message, so a Byzantine sender picks
   it.  Before the ceiling, max_int made the capacity doubling overflow
   to 0 and loop forever, and 1 lsl 40 asked for a 2^40-row table.  Each
   forged round must now land in a boundary row, at once. *)
let test_forged_rounds_clamp () =
  let l = Sim.Ledger.create () in
  let ceiling = Sim.Ledger.round_ceiling in
  List.iter
    (fun (round, words) ->
      Sim.Ledger.record_send l ~phase:"F" ~round ~correct:false ~words;
      Sim.Ledger.record_send_many l ~phase:"F" ~round ~correct:true ~words ~count:2;
      Sim.Ledger.record_delivery l ~phase:"F" ~round)
    [ (max_int, 1); (1 lsl 40, 10); (min_int, 100); (ceiling + 1, 1000) ];
  Alcotest.(check int) "max_round is the ceiling" ceiling (Sim.Ledger.max_round l);
  let top = Sim.Ledger.cell l ~phase:"F" ~round:ceiling in
  Alcotest.(check int) "max_int, 1 lsl 40 and ceiling+1 share the ceiling row" 1011
    top.Sim.Ledger.byz_words;
  Alcotest.(check int) "their correct words" 2022 top.Sim.Ledger.correct_words;
  Alcotest.(check int) "their deliveries" 3 top.Sim.Ledger.delivered;
  let bottom = Sim.Ledger.cell l ~phase:"F" ~round:0 in
  Alcotest.(check int) "min_int lands in row 0" 100 bottom.Sim.Ledger.byz_words;
  Alcotest.(check int) "min_int delivery" 1 bottom.Sim.Ledger.delivered;
  Alcotest.(check int) "clamp max_int" ceiling (Sim.Ledger.clamp_round max_int);
  Alcotest.(check int) "clamp min_int" 0 (Sim.Ledger.clamp_round min_int);
  Alcotest.(check int) "clamp keeps the ceiling" ceiling (Sim.Ledger.clamp_round ceiling);
  Alcotest.(check int) "clamp keeps a real round" 3 (Sim.Ledger.clamp_round 3);
  Alcotest.(check int) "the grand total saw every message" 1111
    (Sim.Ledger.total l).Sim.Ledger.byz_words

let test_fold_order () =
  let l = Sim.Ledger.create () in
  Sim.Ledger.record_send l ~phase:"B" ~round:1 ~correct:true ~words:1;
  Sim.Ledger.record_send l ~phase:"A" ~round:0 ~correct:true ~words:1;
  Sim.Ledger.record_send l ~phase:"B" ~round:0 ~correct:true ~words:1;
  let order =
    List.rev
      (Sim.Ledger.fold l ~init:[] ~f:(fun acc ~phase ~round _ -> (phase, round) :: acc))
  in
  (* rounds ascending; within a round, phases in first-seen order (B was
     interned before A) *)
  Alcotest.(check (list (pair string int)))
    "rounds ascending, phases first-seen"
    [ ("B", 0); ("A", 0); ("B", 1) ]
    order

(* ---------------------------- passivity ------------------------------ *)

let outcome_fingerprint (o : Core.Runner.outcome) =
  Format.asprintf "%a|decisions=%s" Core.Runner.pp_outcome o
    (String.concat ","
       (List.map (fun (p, d) -> Printf.sprintf "%d:%d" p d) o.Core.Runner.decisions))

(* The acceptance criterion: a fixed-seed run is byte-identical with the
   ledger attached or not, and the ledger's totals reproduce the engine's
   own metrics counters. *)
let test_ledger_passive_and_consistent () =
  for seed = 1 to 3 do
    let plain = run_ba ~seed () in
    let ledger = Sim.Ledger.create () in
    let observed =
      run_ba ~probe:(fun eng -> Core.Instrument.attach_ba_ledger eng ledger) ~seed ()
    in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: outcome unchanged under the ledger" seed)
      (outcome_fingerprint plain) (outcome_fingerprint observed);
    let t = Sim.Ledger.total ledger in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: ledger words = outcome words" seed)
      observed.Core.Runner.words t.Sim.Ledger.correct_words;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: ledger msgs = outcome msgs" seed)
      observed.Core.Runner.msgs t.Sim.Ledger.correct_msgs;
    (* per-(phase, round) cells sum to the engine's total: nothing is
       double-counted or dropped by the breakdown *)
    let folded =
      Sim.Ledger.fold ledger ~init:0 ~f:(fun acc ~phase:_ ~round:_ c ->
          acc + c.Sim.Ledger.correct_words)
    in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: per-phase cells sum to correct_words" seed)
      observed.Core.Runner.words folded
  done

(* One ledger attached to successive engines aggregates the campaign. *)
let test_ledger_aggregates_trials () =
  let one seed =
    let l = Sim.Ledger.create () in
    let o = run_ba ~probe:(fun eng -> Core.Instrument.attach_ba_ledger eng l) ~seed () in
    o.Core.Runner.words
  in
  let shared = Sim.Ledger.create () in
  let w1 = one 5 and w2 = one 6 in
  let o1 = run_ba ~probe:(fun eng -> Core.Instrument.attach_ba_ledger eng shared) ~seed:5 () in
  let o2 = run_ba ~probe:(fun eng -> Core.Instrument.attach_ba_ledger eng shared) ~seed:6 () in
  ignore o1;
  ignore o2;
  Alcotest.(check int) "shared ledger sums both trials" (w1 + w2)
    (Sim.Ledger.total shared).Sim.Ledger.correct_words

(* --------------------------- baseline tags --------------------------- *)

let check_brun name (o : Baselines.Brun.outcome) ledger expected_phases =
  let t = Sim.Ledger.total ledger in
  Alcotest.(check int) (name ^ ": ledger words = outcome words") o.Baselines.Brun.words
    t.Sim.Ledger.correct_words;
  Alcotest.(check int) (name ^ ": ledger msgs = outcome msgs") o.Baselines.Brun.msgs
    t.Sim.Ledger.correct_msgs;
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: phase %s only from the expected set" name phase)
        true (List.mem phase expected_phases))
    (Sim.Ledger.phases ledger)

let test_baseline_ledgers () =
  let bn = 15 in
  let inputs = Array.init bn (fun p -> p mod 2) in
  let benor_ledger = Sim.Ledger.create () in
  let b =
    Baselines.Brun.run_benor
      ~probe:(fun eng ->
        Sim.Ledger.attach eng benor_ledger ~tag_of:Baselines.Benor.tag_of_msg
          ~round_of:Baselines.Benor.round_of_msg ())
      ~n:bn ~f:2 ~inputs ~seed:3 ()
  in
  check_brun "benor" b benor_ledger [ "REPORT"; "PROPOSAL" ];
  Alcotest.(check bool) "benor rounds recorded" true (Sim.Ledger.max_round benor_ledger >= 0);
  let bracha_ledger = Sim.Ledger.create () in
  let br =
    Baselines.Brun.run_bracha
      ~probe:(fun eng ->
        Sim.Ledger.attach eng bracha_ledger ~tag_of:Baselines.Bracha.tag_of_msg
          ~round_of:Baselines.Bracha.round_of_msg ())
      ~n:bn ~f:4 ~inputs ~seed:3 ()
  in
  let t = Sim.Ledger.total bracha_ledger in
  Alcotest.(check int) "bracha: ledger words = outcome words" br.Baselines.Brun.words
    t.Sim.Ledger.correct_words;
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "bracha: phase %S is step dot rbc kind" phase)
        true
        (String.length phase > 3
        && phase.[0] = 'S'
        && List.exists
             (fun suffix -> String.ends_with ~suffix phase)
             [ ".INITIAL"; ".ECHO"; ".READY" ]))
    (Sim.Ledger.phases bracha_ledger);
  let rabin_ledger = Sim.Ledger.create () in
  let r =
    Baselines.Brun.run_rabin
      ~probe:(fun eng ->
        Sim.Ledger.attach eng rabin_ledger ~tag_of:Baselines.Rabin.tag_of_msg
          ~round_of:Baselines.Rabin.round_of_msg ())
      ~n:bn ~f:1 ~inputs ~seed:3 ()
  in
  check_brun "rabin" r rabin_ledger [ "REPORT"; "PROPOSAL"; "SHARE" ]

(* --------------------------- ledger/1 docs --------------------------- *)

let test_ledger_doc_validates () =
  let ledger = Sim.Ledger.create () in
  let (_ : Core.Runner.outcome) =
    run_ba ~probe:(fun eng -> Core.Instrument.attach_ba_ledger eng ledger) ~seed:9 ()
  in
  let entry = Core.Instrument.ledger_json ~protocol:"whp-ba" ~n ledger in
  let doc = Core.Instrument.ledger_doc [ entry ] in
  (match Obs.Export.validate_ledger doc with
  | Ok k -> Alcotest.(check int) "one sweep entry" 1 k
  | Error e -> Alcotest.failf "fresh document rejected: %s" e);
  (* document round-trips through the text form *)
  match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok doc' -> (
      match Obs.Export.validate_ledger doc' with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "reparsed document rejected: %s" e)

let test_validate_ledger_rejects () =
  let open Obs.Json in
  let cell =
    [
      ("correct_msgs", Int 1);
      ("correct_words", Int 2);
      ("byz_msgs", Int 0);
      ("byz_words", Int 0);
      ("delivered", Int 1);
    ]
  in
  let entry ?(rounds = []) () =
    Obj [ ("protocol", Str "x"); ("n", Int 4); ("total", Obj cell); ("rounds", List rounds) ]
  in
  let doc entries =
    Obj [ ("schema", Str Obs.Export.ledger_schema); ("sweep", List entries) ]
  in
  let expect_error what d =
    match Obs.Export.validate_ledger d with
    | Ok _ -> Alcotest.failf "%s: expected rejection" what
    | Error _ -> ()
  in
  (match Obs.Export.validate_ledger (doc [ entry () ]) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "minimal doc rejected: %s" e);
  expect_error "wrong schema" (Obj [ ("schema", Str "nope/1"); ("sweep", List []) ]);
  expect_error "missing sweep" (Obj [ ("schema", Str Obs.Export.ledger_schema) ]);
  expect_error "missing protocol"
    (doc [ Obj [ ("n", Int 4); ("total", Obj cell) ] ]);
  expect_error "non-positive n"
    (doc [ Obj [ ("protocol", Str "x"); ("n", Int 0); ("total", Obj cell) ] ]);
  expect_error "negative count"
    (doc
       [
         Obj
           [
             ("protocol", Str "x");
             ("n", Int 4);
             ("total", Obj (("correct_msgs", Int (-1)) :: List.tl cell));
           ];
       ]);
  expect_error "rounds not strictly increasing"
    (doc
       [
         entry
           ~rounds:
             [
               Obj (("round", Int 1) :: cell);
               Obj (("round", Int 1) :: cell);
             ]
           ();
       ]);
  expect_error "phase entry without a name"
    (doc
       [
         entry
           ~rounds:[ Obj ((("round", Int 0) :: cell) @ [ ("phases", List [ Obj cell ]) ]) ]
           ();
       ])

let suite =
  [
    Alcotest.test_case "record and read cells" `Quick test_record_and_read;
    Alcotest.test_case "record_send_many = repeated record_send" `Quick test_record_send_many;
    Alcotest.test_case "round capacity growth" `Quick test_round_growth;
    Alcotest.test_case "forged rounds clamp to the ceiling" `Quick test_forged_rounds_clamp;
    Alcotest.test_case "fold order deterministic" `Quick test_fold_order;
    Alcotest.test_case "ledger passive and consistent with metrics" `Quick
      test_ledger_passive_and_consistent;
    Alcotest.test_case "one ledger aggregates trials" `Quick test_ledger_aggregates_trials;
    Alcotest.test_case "baseline tag functions" `Quick test_baseline_ledgers;
    Alcotest.test_case "ledger document validates" `Quick test_ledger_doc_validates;
    Alcotest.test_case "validator rejects malformed docs" `Quick test_validate_ledger_rejects;
  ]
