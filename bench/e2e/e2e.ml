(* End-to-end agreement benchmark.

   Usage (from the repository root, where BENCHMARK.json lives):
     dune exec bench/e2e/e2e.exe -- [--workload NAME|all] [--seed S]
         [--seconds T] [--trace 0|1] [--json OUT]
     dune exec bench/e2e/e2e.exe -- --compare OLD.json NEW.json

   Without --trace both phases run: end to end, then traced.  --trace 0
   runs only the end-to-end phase, --trace 1 only the traced one.  The
   counts are fixed, so every host and every commit measures the same
   instances.  --seconds T, which a benchmark runner passes, is accepted
   and changes nothing.  Every metric is printed by name with its unit;
   the last line of standard output is one JSON object {correct,
   attempted, failed, metrics}.  Exit 1 when any correctness check
   fails. *)

open E2e_harness

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1] [--json OUT]\n\
    \       e2e.exe --compare OLD.json NEW.json";
  exit 2

let benchmark_file = "BENCHMARK.json"

(* Per workload: instances measured end to end, each in every pass, and
   instances traced. *)
let measured = { Harness.instances = 8; passes = 5 }
let traced_instances = 8

type opts = { workload : string; seed : int; trace : int option; json : string option }

let rec parse o = function
  | [] -> o
  | "--workload" :: v :: rest -> parse { o with workload = v } rest
  | "--seed" :: v :: rest -> (
      match int_of_string_opt v with Some seed -> parse { o with seed } rest | None -> usage ())
  | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when Float.is_finite s && s >= 0.0 -> parse o rest
      | Some _ | None -> usage ())
  | "--trace" :: ("0" | "1" as v) :: rest -> parse { o with trace = Some (int_of_string v) } rest
  | "--json" :: path :: rest -> parse { o with json = Some path } rest
  | _ -> usage ()

let declared () =
  match Harness.load_declared benchmark_file with
  | Ok d -> d
  | Error e ->
      Printf.eprintf "%s\n" e;
      exit 1

let compare_files old_path new_path =
  let d = declared () in
  let load path =
    match Harness.load_json path with
    | Ok doc -> doc
    | Error e ->
        Printf.eprintf "%s: %s\n" path e;
        exit 2
  in
  match Harness.compare_docs d (load old_path) (load new_path) with
  | Error e ->
      Printf.eprintf "compare: %s\n" e;
      exit 2
  | Ok rows ->
      Printf.printf "%-20s %-16s %12s %12s %8s %8s %6s  %s\n" "workload" "metric" "old" "new"
        "old iqr" "new iqr" "bound" "verdict";
      List.iter
        (fun (r : Harness.row) ->
          Printf.printf "%-20s %-16s %12.6g %12.6g %7.2f%% %7.2f%% %5.1f%%  %s\n" r.row_workload
            r.row_metric r.old_value r.new_value (100.0 *. r.old_spread) (100.0 *. r.new_spread)
            (100.0 *. r.bound) (Harness.verdict_name r.verdict))
        rows;
      let count v = List.length (List.filter (fun (r : Harness.row) -> r.verdict = v) rows) in
      Printf.printf "%d better, %d same, %d worse, %d unresolved\n" (count Harness.Better)
        (count Harness.Same) (count Harness.Worse) (count Harness.Unresolved);
      exit (if count Harness.Worse > 0 then 1 else 0)

(* [nproc] for the provenance record of saved documents. *)
let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic ->
      let line = In_channel.input_line ic in
      ignore (Unix.close_process_in ic : Unix.process_status);
      Option.bind line int_of_string_opt
  | exception Unix.Unix_error _ -> None

let run o =
  let workloads =
    if String.equal o.workload "all" then Workload.all
    else match Workload.find o.workload with Some w -> [ w ] | None -> usage ()
  in
  let d = declared () in
  let phase ~skip_when counts =
    if Option.equal Int.equal o.trace (Some skip_when) then None else Some counts
  in
  let results =
    Harness.run ~seed:o.seed
      ?e2e:(phase ~skip_when:1 measured)
      ?traced:(phase ~skip_when:0 traced_instances)
      workloads
  in
  let all_phases = List.concat_map Harness.phases results in
  let failures = Harness.failures d results in
  List.iter
    (fun (r : Harness.workload_result) ->
      List.iter
        (fun (p : Harness.phase_result) ->
          Printf.printf "%s: %d instances, %d failed\n" r.workload.name p.attempted p.failed;
          List.iter
            (fun ((m : Harness.meta), v) -> Printf.printf "  %-28s %14.6g %s\n" m.name v m.unit_)
            p.metrics)
        (Harness.phases r))
    results;
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
  (match o.json with
  | Some path ->
      let provenance =
        [
          ("nproc", match nproc () with Some k -> Obs.Json.Int k | None -> Obs.Json.Null);
          ("recommended_domain_count", Obs.Json.Int (Domain.recommended_domain_count ()));
          ("ocaml", Obs.Json.Str Sys.ocaml_version);
          ("seed", Obs.Json.Int o.seed);
          ("clock", Obs.Json.Str "bechamel.monotonic_clock");
        ]
      in
      Out_channel.with_open_bin path (fun oc ->
          Obs.Json.to_channel oc (Harness.document ~provenance ~failures results);
          output_char oc '\n')
  | None -> ());
  (* With several workloads, metric names are prefixed by the workload's. *)
  let metrics (r : Harness.workload_result) =
    let key (m : Harness.meta) =
      if List.length results > 1 then r.workload.name ^ "/" ^ m.name else m.name
    in
    List.concat_map
      (fun (p : Harness.phase_result) ->
        List.map (fun (m, v) -> Harness.metric_json ({ m with Harness.name = key m }, v)) p.metrics)
      (Harness.phases r)
  in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 all_phases in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (List.is_empty failures));
            ("attempted", Obs.Json.Int (sum (fun (p : Harness.phase_result) -> p.attempted)));
            ("failed", Obs.Json.Int (sum (fun (p : Harness.phase_result) -> p.failed)));
            ("metrics", Obs.Json.Obj (List.concat_map metrics results));
          ]));
  exit (if List.is_empty failures then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--compare"; old_path; new_path ] -> compare_files old_path new_path
  | args ->
      run (parse { workload = "all"; seed = 1; trace = None; json = None } args)
