let bench_schema = "coincidence.bench/1"

(* Every record goes through one buffer, emptied into the channel as it
   passes 64 KiB. *)
let write_jsonl oc values =
  let buf = Buffer.create 65536 in
  List.iter
    (fun v ->
      Json.to_buffer buf v;
      Buffer.add_char buf '\n';
      if Buffer.length buf >= 65536 then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    values;
  Buffer.output_buffer oc buf

let jsonl_to_string values =
  let buf = Buffer.create 4096 in
  List.iter
    (fun v ->
      Json.to_buffer buf v;
      Buffer.add_char buf '\n')
    values;
  Buffer.contents buf

(* ------------------------- trace exporters ------------------------- *)

(* The integer members [(key, Int v)] of one key that the records of one
   export share.  [member] keeps one per value in [0, member_limit) and
   builds the others fresh; [recent] keeps the last one asked for, which
   consecutive records share (the step of a broadcast's Sent records and
   of the delivery that caused them).  [Json.t] is immutable, so no
   reader can tell a shared member from a fresh one. *)
type members = {
  key : string;
  mutable shared : (string * Json.t) array;  (* [unset] where not built yet *)
  mutable last : string * Json.t;
}

let member_limit = 4096
let unset = ("", Json.Null)
let members key = { key; shared = [||]; last = unset }

let member m v =
  if v < 0 || v >= member_limit then (m.key, Json.Int v)
  else begin
    if v >= Array.length m.shared then begin
      let grown = Array.make (min member_limit (max 64 (2 * v))) unset in
      Array.blit m.shared 0 grown 0 (Array.length m.shared);
      m.shared <- grown
    end;
    let p = m.shared.(v) in
    if p != unset then p
    else begin
      let p = (m.key, Json.Int v) in
      m.shared.(v) <- p;
      p
    end
  end

let recent m v =
  match m.last with
  | _, Json.Int v' when v' = v -> m.last
  | _ ->
      let p = (m.key, Json.Int v) in
      m.last <- p;
      p

(* Records are built newest first, so consing them yields the stream
   oldest first with no [List.rev]. *)
let trace_jsonl ?(run = 0) trace =
  let run = ("run", Json.Int run) in
  let ev_send = ("ev", Json.Str "send")
  and ev_deliver = ("ev", Json.Str "deliver")
  and ev_corrupt = ("ev", Json.Str "corrupt") in
  let step = members "step"
  and src = members "src"
  and dst = members "dst"
  and depth = members "depth"
  and words = members "words"
  and pid = members "pid" in
  let record = function
    | Sim.Trace.Sent { step = s; id; src = a; dst = b; depth = d; words = w } ->
        Json.Obj
          [
            ev_send;
            run;
            recent step s;
            ("id", Json.Int id);
            member src a;
            member dst b;
            member depth d;
            member words w;
          ]
    | Sim.Trace.Delivered { step = s; id; src = a; dst = b; depth = d } ->
        Json.Obj
          [
            ev_deliver;
            run;
            recent step s;
            ("id", Json.Int id);
            member src a;
            member dst b;
            member depth d;
          ]
    | Sim.Trace.Corrupted { step = s; pid = p } ->
        Json.Obj [ ev_corrupt; run; recent step s; member pid p ]
  in
  Sim.Trace.fold_right trace ~init:[] ~f:(fun e acc -> record e :: acc)

(* Nestable async events pair up on (cat, id, pid); "b" and "e" must agree
   on all three.  tid only affects which track row hosts the event. *)
let chrome_of_trace ?(pid = 0) trace =
  let cat_msg = ("cat", Json.Str "msg")
  and ph_b = ("ph", Json.Str "b")
  and ph_e = ("ph", Json.Str "e")
  and pid = ("pid", Json.Int pid) in
  let ts = members "ts" and tid = members "tid" and words = members "words" in
  let depth = members "depth" in
  (* "msg <src>-><dst>", rendered by the emitter into one reused buffer. *)
  let name_buf = Buffer.create 16 in
  let name src dst =
    Buffer.clear name_buf;
    Buffer.add_string name_buf "msg ";
    Json.to_buffer name_buf (Json.Int src);
    Buffer.add_string name_buf "->";
    Json.to_buffer name_buf (Json.Int dst);
    ("name", Json.Str (Buffer.contents name_buf))
  in
  (* A broadcast's begin events share one args object. *)
  let args = ref unset in
  let args_of w d =
    match !args with
    | _, Json.Obj [ (_, Json.Int w'); (_, Json.Int d') ] when w' = w && d' = d -> !args
    | _ ->
        args := ("args", Json.Obj [ member words w; member depth d ]);
        !args
  in
  let ev = function
    | Sim.Trace.Sent { step; id; src; dst; depth = d; words = w } ->
        Json.Obj
          [
            name src dst;
            cat_msg;
            ph_b;
            ("id", Json.Int id);
            recent ts step;
            pid;
            member tid src;
            args_of w d;
          ]
    | Sim.Trace.Delivered { step; id; src; dst; _ } ->
        Json.Obj
          [ name src dst; cat_msg; ph_e; ("id", Json.Int id); recent ts step; pid; member tid src ]
    | Sim.Trace.Corrupted { step; pid = victim } ->
        Json.Obj
          [
            ("name", Json.Str ("corrupt " ^ string_of_int victim));
            ("cat", Json.Str "fault");
            ("ph", Json.Str "i");
            ("s", Json.Str "p");
            recent ts step;
            pid;
            member tid victim;
          ]
  in
  Sim.Trace.fold_right trace ~init:[] ~f:(fun e acc -> ev e :: acc)

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

(* The one spelling of the Chrome trace wrapper.  The events [f] passes
   to [add] are rendered into [buf], comma-separated, and [drain] takes
   the buffer's contents whenever it passes 64 KiB. *)
let chrome_document buf ~drain f =
  Buffer.add_string buf {|{"traceEvents":[|};
  let first = ref true in
  let add events =
    List.iter
      (fun ev ->
        if !first then first := false else Buffer.add_char buf ',';
        Json.to_buffer buf ev;
        if Buffer.length buf >= 65536 then drain buf)
      events
  in
  let result = f add in
  Buffer.add_string buf {|],"displayTimeUnit":"ms"}|};
  result

let write_chrome oc f =
  let buf = Buffer.create 65536 in
  let drain b =
    Buffer.output_buffer oc b;
    Buffer.clear b
  in
  let result = chrome_document buf ~drain f in
  Buffer.add_char buf '\n';
  drain buf;
  result

let chrome_to_string events =
  let buf = Buffer.create 4096 in
  chrome_document buf ~drain:ignore (fun add -> add events);
  Buffer.contents buf

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
