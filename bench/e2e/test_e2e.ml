(* The benchmark harness end to end at toy size: each of the four
   workload definitions at n = 16, lambda = n, with 2 measured instances
   in 2 passes and 1 traced instance, through the same functions e2e.exe
   runs.  Fails on any harness check (agreement, equal passes, mirror =
   Runner.run_ba, warm replay = cold run, observer passivity, metric
   names = BENCHMARK.json),
   on a result document that does not survive a JSON round trip with its
   samples, and on a self-compare that is not all "same". *)

open E2e_harness

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("test_e2e: " ^ s); exit 1) fmt

let () =
  let declared =
    match Harness.load_declared Sys.argv.(1) with Ok d -> d | Error e -> fail "%s" e
  in
  let workloads = List.map (Workload.scaled ~n:16) Workload.all in
  let results =
    Harness.run ~seed:7 ~e2e:{ Harness.instances = 2; passes = 2 } ~traced:1 workloads
  in
  List.iter (fun f -> fail "%s" f) (Harness.failures declared results);
  List.iter
    (fun (r : Harness.workload_result) ->
      match (r.e2e, r.traced) with
      | Some e, Some t when e.attempted = 4 && t.attempted = 1 && e.failed = 0 && t.failed = 0 -> ()
      | _ ->
          fail "%s: expected 2 measured instances in 2 passes and 1 traced instance, all deciding"
            r.workload.name)
    results;
  let doc = Harness.document ~provenance:[ ("seed", Obs.Json.Int 7) ] ~failures:[] results in
  let doc =
    match Obs.Json.of_string (Obs.Json.to_string doc) with Ok d -> d | Error e -> fail "%s" e
  in
  (match Option.bind (Obs.Json.member "schema" doc) Obs.Json.to_string_opt with
  | Some s when String.equal s Harness.schema -> ()
  | _ -> fail "document schema is not %s" Harness.schema);
  let names =
    List.map (fun (m, _) -> m.Harness.name) declared.Harness.end_to_end
    @ List.map (fun m -> m.Harness.name) declared.Harness.per_layer
  in
  List.iter
    (fun w ->
      let metrics = Option.value (Obs.Json.member "metrics" w) ~default:Obs.Json.Null in
      List.iter
        (fun name ->
          match Option.bind (Obs.Json.member name metrics) (Obs.Json.member "value") with
          | Some (Obs.Json.Float _ | Obs.Json.Int _) -> ()
          | _ -> fail "document lacks a numeric %s" name)
        names)
    (Obs.Json.to_list (Option.value (Obs.Json.member "workloads" doc) ~default:Obs.Json.Null));
  match Harness.compare_docs declared doc doc with
  | Error e -> fail "%s" e
  | Ok rows ->
      if List.length rows <> List.length workloads * List.length Harness.e2e_specs then
        fail "self-compare covered %d pairs" (List.length rows);
      List.iter
        (fun (r : Harness.row) ->
          match r.verdict with
          | Harness.Same -> ()
          | Harness.Better | Harness.Worse | Harness.Unresolved ->
              fail "self-compare of %s/%s is %s" r.row_workload r.row_metric
                (Harness.verdict_name r.verdict))
        rows
