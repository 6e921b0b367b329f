let bench_schema = "coincidence.bench/1"

let write_jsonl oc values =
  List.iter
    (fun v ->
      Json.to_channel oc v;
      output_char oc '\n')
    values

let jsonl_to_string values =
  let buf = Buffer.create 4096 in
  List.iter
    (fun v ->
      Json.to_buffer buf v;
      Buffer.add_char buf '\n')
    values;
  Buffer.contents buf

let trace_jsonl ?(run = 0) trace =
  (* Members that every record of one kind shares are built once per call. *)
  let run = ("run", Json.Int run) in
  let ev_send = ("ev", Json.Str "send")
  and ev_deliver = ("ev", Json.Str "deliver")
  and ev_corrupt = ("ev", Json.Str "corrupt") in
  let record = function
    | Sim.Trace.Sent { step; id; src; dst; depth; words } ->
        Json.Obj
          [
            ev_send;
            run;
            ("step", Json.Int step);
            ("id", Json.Int id);
            ("src", Json.Int src);
            ("dst", Json.Int dst);
            ("depth", Json.Int depth);
            ("words", Json.Int words);
          ]
    | Sim.Trace.Delivered { step; id; src; dst; depth } ->
        Json.Obj
          [
            ev_deliver;
            run;
            ("step", Json.Int step);
            ("id", Json.Int id);
            ("src", Json.Int src);
            ("dst", Json.Int dst);
            ("depth", Json.Int depth);
          ]
    | Sim.Trace.Corrupted { step; pid } ->
        Json.Obj [ ev_corrupt; run; ("step", Json.Int step); ("pid", Json.Int pid) ]
  in
  List.rev (Sim.Trace.fold trace ~init:[] ~f:(fun acc e -> record e :: acc))

(* Nestable async events pair up on (cat, id, pid); "b" and "e" must agree
   on all three.  tid only affects which track row hosts the event. *)
let chrome_of_trace ?(pid = 0) trace =
  let ev = function
    | Sim.Trace.Sent { step; id; src; dst; depth; words } ->
        Json.Obj
          [
            ("name", Json.Str (Printf.sprintf "msg %d->%d" src dst));
            ("cat", Json.Str "msg");
            ("ph", Json.Str "b");
            ("id", Json.Int id);
            ("ts", Json.Int step);
            ("pid", Json.Int pid);
            ("tid", Json.Int src);
            ("args", Json.Obj [ ("words", Json.Int words); ("depth", Json.Int depth) ]);
          ]
    | Sim.Trace.Delivered { step; id; src; dst; _ } ->
        Json.Obj
          [
            ("name", Json.Str (Printf.sprintf "msg %d->%d" src dst));
            ("cat", Json.Str "msg");
            ("ph", Json.Str "e");
            ("id", Json.Int id);
            ("ts", Json.Int step);
            ("pid", Json.Int pid);
            ("tid", Json.Int src);
          ]
    | Sim.Trace.Corrupted { step; pid = victim } ->
        Json.Obj
          [
            ("name", Json.Str (Printf.sprintf "corrupt %d" victim));
            ("cat", Json.Str "fault");
            ("ph", Json.Str "i");
            ("s", Json.Str "p");
            ("ts", Json.Int step);
            ("pid", Json.Int pid);
            ("tid", Json.Int victim);
          ]
  in
  List.rev (Sim.Trace.fold trace ~init:[] ~f:(fun acc e -> ev e :: acc))

let chrome_of_spans ?(pid = 0) ?tid spans =
  List.map
    (fun (s : Span.span) ->
      Json.Obj
        [
          ("name", Json.Str s.Span.name);
          ("cat", Json.Str "span");
          ("ph", Json.Str "X");
          ("ts", Json.Int s.Span.begin_step);
          ("dur", Json.Int (max 1 (s.Span.end_step - s.Span.begin_step)));
          ("pid", Json.Int pid);
          ( "tid",
            Json.Int
              (match (tid, s.Span.pid) with
              | Some t, _ -> t
              | None, Some p -> p
              | None, None -> 0) );
          ( "args",
            Json.Obj
              [
                ("nest", Json.Int s.Span.nest);
                ("begin_vtime", Json.Float s.Span.begin_now);
                ("end_vtime", Json.Float s.Span.end_now);
              ] );
        ])
    (Span.completed spans)

let chrome_process_name ~pid name =
  Json.Obj
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let chrome_thread_name ~pid ~tid name =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let chrome_trace events =
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ms") ]

(* -------------------------- bench comparison ------------------------- *)

type bench_delta = {
  cmp_name : string;
  cmp_old : float;   (** ns/op in the baseline document. *)
  cmp_new : float;
  cmp_ratio : float; (** new / old; [infinity] when old is 0. *)
  cmp_regressed : bool;
}

let bench_rows doc = match Json.member "rows" doc with Some l -> Json.to_list l | None -> []

let check_bench_schema doc =
  match Option.bind (Json.member "schema" doc) Json.to_string_opt with
  | Some s when String.equal s bench_schema -> Ok ()
  | Some s -> Error (Printf.sprintf "unexpected schema %S (want %S)" s bench_schema)
  | None -> Error "missing \"schema\" member"

(* The stable comparison surface: b1 micro rows as (name, ns_per_op),
   and the sim table's raw engine throughput rows as ("sim/<protocol>",
   ns per message), so a delivery-loop slowdown trips the same gate as a
   kernel regression.  Sim rows without a [msgs_per_sec] member
   (protocol runs, the heap audit) carry statistical estimates whose
   run-to-run drift is expected and stay out, as do the experiment
   tables. *)
let comparable_rows doc =
  List.filter_map
    (fun r ->
      match Json.member "table" r with
      | Some (Json.Str "b1") -> (
          match
            ( Option.bind (Json.member "name" r) Json.to_string_opt,
              Option.bind (Json.member "ns_per_op" r) Json.to_float_opt )
          with
          | Some name, Some v -> Some (name, v)
          | _ -> None)
      | Some (Json.Str "sim") -> (
          match
            ( Option.bind (Json.member "protocol" r) Json.to_string_opt,
              Option.bind (Json.member "msgs_per_sec" r) Json.to_float_opt )
          with
          | Some proto, Some v when v > 0.0 -> Some ("sim/" ^ proto, 1e9 /. v)
          | _ -> None)
      | _ -> None)
    (bench_rows doc)

let bench_compare ~threshold old_doc new_doc =
  if not (Float.is_finite threshold) || threshold < 0.0 then
    invalid_arg "Export.bench_compare: threshold must be finite and >= 0";
  match (check_bench_schema old_doc, check_bench_schema new_doc) with
  | Error e, _ -> Error ("old document: " ^ e)
  | _, Error e -> Error ("new document: " ^ e)
  | Ok (), Ok () -> (
      let olds = comparable_rows old_doc and news = comparable_rows new_doc in
      match (olds, news) with
      | [], _ -> Error "old document has no comparable (b1 or sim) rows"
      | _, [] -> Error "new document has no comparable (b1 or sim) rows"
      | _, _ ->
          Ok
            (List.filter_map
               (fun (name, ov) ->
                 match
                   List.find_map
                     (fun (n, v) -> if String.equal n name then Some v else None)
                     news
                 with
                 | None -> None
                 | Some nv ->
                     let ratio = if ov > 0.0 then nv /. ov else Float.infinity in
                     Some
                       {
                         cmp_name = name;
                         cmp_old = ov;
                         cmp_new = nv;
                         cmp_ratio = ratio;
                         cmp_regressed = ov > 0.0 && nv > ov *. (1.0 +. threshold);
                       })
               (List.sort (fun (a, _) (b, _) -> String.compare a b) olds)))

(* -------------------------- ledger documents ------------------------- *)

let ledger_schema = "coincidence.ledger/1"

let cell_fields = [ "correct_msgs"; "correct_words"; "byz_msgs"; "byz_words"; "delivered" ]

let validate_cell ~what j =
  List.fold_left
    (fun acc k ->
      Result.bind acc (fun () ->
          match Option.bind (Json.member k j) Json.to_int_opt with
          | Some v when v >= 0 -> Ok ()
          | Some v -> Error (Printf.sprintf "%s: %s = %d is negative" what k v)
          | None -> Error (Printf.sprintf "%s: missing integer %S" what k)))
    (Ok ()) cell_fields

let validate_ledger_entry ~idx entry =
  let what = Printf.sprintf "sweep[%d]" idx in
  match Option.bind (Json.member "protocol" entry) Json.to_string_opt with
  | None -> Error (Printf.sprintf "%s: missing \"protocol\" string" what)
  | Some proto -> (
      let what = Printf.sprintf "%s (%s)" what proto in
      match Option.bind (Json.member "n" entry) Json.to_int_opt with
      | Some n when n <= 0 -> Error (Printf.sprintf "%s: n = %d must be positive" what n)
      | None -> Error (Printf.sprintf "%s: missing integer \"n\"" what)
      | Some _ ->
          Result.bind
            (match Json.member "total" entry with
            | Some tot -> validate_cell ~what:(what ^ ".total") tot
            | None -> Error (Printf.sprintf "%s: missing \"total\"" what))
            (fun () ->
              let rounds =
                match Json.member "rounds" entry with Some l -> Json.to_list l | None -> []
              in
              let step (acc : (int, string) result) r =
                Result.bind acc (fun prev ->
                    match Option.bind (Json.member "round" r) Json.to_int_opt with
                    | None -> Error (Printf.sprintf "%s: round entry missing \"round\"" what)
                    | Some rd when rd < 0 ->
                        Error (Printf.sprintf "%s: round %d is negative" what rd)
                    | Some rd when rd <= prev ->
                        Error
                          (Printf.sprintf "%s: rounds not strictly increasing (%d after %d)"
                             what rd prev)
                    | Some rd ->
                        let cw = Printf.sprintf "%s.round[%d]" what rd in
                        Result.bind (validate_cell ~what:cw r) (fun () ->
                            let phases =
                              match Json.member "phases" r with
                              | Some l -> Json.to_list l
                              | None -> []
                            in
                            Result.map
                              (fun () -> rd)
                              (List.fold_left
                                 (fun acc p ->
                                   Result.bind acc (fun () ->
                                       match
                                         Option.bind (Json.member "phase" p) Json.to_string_opt
                                       with
                                       | None ->
                                           Error
                                             (Printf.sprintf
                                                "%s: phase entry missing \"phase\"" cw)
                                       | Some ph ->
                                           validate_cell
                                             ~what:(Printf.sprintf "%s.%s" cw ph) p))
                                 (Ok ()) phases)))
              in
              Result.map (fun _ -> ()) (List.fold_left step (Ok (-1)) rounds)))

let validate_ledger doc =
  match Option.bind (Json.member "schema" doc) Json.to_string_opt with
  | Some s when String.equal s ledger_schema -> (
      match Json.member "sweep" doc with
      | Some (Json.List entries) ->
          let rec go idx = function
            | [] -> Ok (List.length entries)
            | e :: rest -> (
                match validate_ledger_entry ~idx e with
                | Ok () -> go (idx + 1) rest
                | Error e -> Error e)
          in
          go 0 entries
      | Some _ | None -> Error "missing \"sweep\" list")
  | Some s -> Error (Printf.sprintf "unexpected schema %S (want %S)" s ledger_schema)
  | None -> Error "missing \"schema\" member"
