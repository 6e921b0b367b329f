(* Observability layer: JSON round-trips, histogram bucket edges, span
   nesting, probe passivity and exporter determinism across equal seeds. *)

let n = 16
let params = lazy (Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n ())
let keyring = lazy (Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"obs-test" ())

let run_ba ?probe ~seed () =
  let inputs = Array.init n (fun p -> (p + seed) mod 2) in
  Core.Runner.run_ba ?probe ~keyring:(Lazy.force keyring) ~params:(Lazy.force params) ~inputs
    ~seed ()

(* ------------------------------- json ------------------------------- *)

let roundtrip v =
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_roundtrip () =
  let open Obs.Json in
  let values =
    [
      Null;
      Bool true;
      Bool false;
      Int 0;
      Int (-42);
      Int max_int;
      Int min_int;
      Float 0.5;
      Float (-1.25e-3);
      Float 1e100;
      Float 0.1;
      Float (1.0 /. 3.0);
      Str "";
      Str "plain";
      Str "esc \" \\ \n \t \r \x0c \b quotes";
      Str "unicode: \xc3\xa9\xe2\x82\xac";
      List [];
      List [ Int 1; Str "two"; Null ];
      Obj [];
      Obj [ ("a", Int 1); ("nested", Obj [ ("xs", List [ Bool false; Float 2.5 ]) ]) ];
    ]
  in
  List.iter (fun v -> Alcotest.(check bool) (to_string v) true (roundtrip v = v)) values

let test_json_single_line () =
  let v =
    Obs.Json.Obj [ ("s", Obs.Json.Str "line1\nline2"); ("l", Obs.Json.List [ Obs.Json.Int 1 ]) ]
  in
  Alcotest.(check bool) "no raw newline in output" false
    (String.contains (Obs.Json.to_string v) '\n')

let test_json_nonfinite_floats () =
  List.iter
    (fun f -> Alcotest.(check string) "emitted as null" "null" (Obs.Json.to_string (Obs.Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid input %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}"; "nul" ]

let test_json_accessors () =
  let doc = Obs.Json.of_string_exn {|{"a": 1, "b": "x", "c": [1, 2], "d": 2.5}|} in
  let open Obs.Json in
  Alcotest.(check (option int)) "int member" (Some 1) (Option.bind (member "a" doc) to_int_opt);
  Alcotest.(check (option string)) "str member" (Some "x")
    (Option.bind (member "b" doc) to_string_opt);
  Alcotest.(check int) "list member" 2
    (List.length (match member "c" doc with Some l -> to_list l | None -> []));
  Alcotest.(check (option (float 0.0))) "float member" (Some 2.5)
    (Option.bind (member "d" doc) to_float_opt);
  Alcotest.(check bool) "missing member" true (member "zz" doc = None)

(* The emitter writes integers digit by digit; [string_of_int] is the
   byte-for-byte reference, at the extremes, around every power of ten
   and at random. *)
let test_json_ints_match_string_of_int () =
  let open Obs.Json in
  let rng = Crypto.Rng.create 7 in
  let powers = List.init 19 (fun k -> int_of_string ("1" ^ String.make k '0')) in
  let ints =
    [ min_int; max_int; 0; 1; -1; min_int + 1; max_int - 1 ]
    @ List.concat_map (fun p -> [ p; p - 1; -p; 1 - p ]) powers
    @ List.init 1000 (fun _ -> Int64.to_int (Crypto.Rng.next_int64 rng))
  in
  List.iter
    (fun i ->
      let got = to_string (Int i) in
      Alcotest.(check string) (Printf.sprintf "int %d" i) (string_of_int i) got;
      match of_string got with
      | Ok (Int i') -> Alcotest.(check int) (Printf.sprintf "int %d round-trips" i) i i'
      | Ok _ | Error _ -> Alcotest.failf "%s does not parse back to an int" got)
    ints

(* ------------------------------ metrics ------------------------------ *)

let test_bucket_edges () =
  let open Obs.Metrics in
  (* A value lands in the first bucket with v <= bound: exact powers of
     two land on their own bound, the next representable value above
     spills into the following bucket. *)
  Alcotest.(check int) "1.0 -> bucket 0" 0 (bucket_index 1.0);
  Alcotest.(check int) "2.0 -> bucket 1" 1 (bucket_index 2.0);
  Alcotest.(check int) "2.0001 -> bucket 2" 2 (bucket_index 2.0001);
  Alcotest.(check int) "1024 -> bucket 10" 10 (bucket_index 1024.0);
  Alcotest.(check int) "0 -> first bucket" 0 (bucket_index 0.0);
  let last = Array.length bucket_bounds - 1 in
  Alcotest.(check int) "2^24 -> last finite bucket" (last - 1)
    (bucket_index (Float.of_int (1 lsl 24)));
  Alcotest.(check int) "huge -> overflow" last (bucket_index 1e30);
  Alcotest.(check bool) "overflow bound is +inf" true
    (Float.is_integer bucket_bounds.(last - 1) && bucket_bounds.(last) = Float.infinity)

let test_histogram_counts () =
  let m = Obs.Metrics.create () in
  List.iter (fun v -> Obs.Metrics.observe m "lat" v) [ 1.0; 2.0; 3.0; 1024.0; 1e30 ];
  match Obs.Metrics.histogram m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 5 h.Obs.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" (1.0 +. 2.0 +. 3.0 +. 1024.0 +. 1e30) h.Obs.Metrics.sum;
      Alcotest.(check (float 0.0)) "min" 1.0 h.Obs.Metrics.min;
      Alcotest.(check (float 0.0)) "max" 1e30 h.Obs.Metrics.max;
      Alcotest.(check int) "bucket 0 holds 1.0" 1 h.Obs.Metrics.buckets.(0);
      Alcotest.(check int) "bucket 1 holds 2.0" 1 h.Obs.Metrics.buckets.(1);
      Alcotest.(check int) "bucket 2 holds 3.0" 1 h.Obs.Metrics.buckets.(2);
      Alcotest.(check int) "overflow holds 1e30" 1
        h.Obs.Metrics.buckets.(Array.length h.Obs.Metrics.buckets - 1)

let test_labels_canonical () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m ~labels:[ ("a", "1"); ("b", "2") ] "c";
  Obs.Metrics.incr m ~labels:[ ("b", "2"); ("a", "1") ] "c";
  Alcotest.(check int) "label order never splits a series" 2
    (Obs.Metrics.counter_value m ~labels:[ ("a", "1"); ("b", "2") ] "c");
  Alcotest.(check int) "different labels are a different series" 0
    (Obs.Metrics.counter_value m ~labels:[ ("a", "1") ] "c")

(* A resolved series stays out of every document until recorded into,
   so resolving handles ahead of use never adds a series. *)
let test_series_handles () =
  let open Obs.Metrics in
  let m = create () in
  let c = counter m ~labels:[ ("k", "v") ] "resolved" in
  let h = histo m "resolved_h" in
  let doc () = Obs.Json.to_string (to_json m) in
  Alcotest.(check string) "unrecorded series are absent"
    {|{"counters":[],"histograms":[]}|} (doc ());
  Alcotest.(check bool) "no snapshot before a record" true (histogram m "resolved_h" = None);
  record h ~count:0 3.0;
  Alcotest.(check bool) "count 0 records nothing" true (histogram m "resolved_h" = None);
  Alcotest.check_raises "negative count" (Invalid_argument "Obs.Metrics.record: negative count")
    (fun () -> record h ~count:(-1) 3.0);
  add c 0;
  Alcotest.(check int) "adding 0 records the series" 1
    (fold_counters m ~init:0 ~f:(fun acc ~name:_ ~labels:_ _ -> acc + 1));
  Alcotest.(check bool) "one handle per series" true
    (counter m ~labels:[ ("k", "v") ] "resolved" == c);
  incr m ~by:4 ~labels:[ ("k", "v") ] "resolved";
  Alcotest.(check int) "incr records through the same handle" 4
    (counter_value m ~labels:[ ("k", "v") ] "resolved");
  (* a weighted observation equals that many single ones *)
  let w = create () and single = create () in
  List.iter
    (fun (v, k) ->
      record (histo w "x") ~count:k v;
      for _ = 1 to k do
        observe single "x" v
      done)
    [ (3.0, 128); (1.0, 1); (70.0, 64); (3.0, 5) ];
  Alcotest.(check string) "weighted = repeated" (Obs.Json.to_string (to_json single))
    (Obs.Json.to_string (to_json w));
  let words () = Gc.minor_words () in
  let w0 = words () in
  for i = 1 to 10_000 do
    record_int h ~count:1 i;
    add c 1
  done;
  Alcotest.(check bool) "int records and counter adds allocate nothing" true
    (words () -. w0 < 100.0)

(* Bridge labels rounds with the ledger's clamp: a flood of forged round
   numbers, the extreme ones included, makes at most round_ceiling + 1
   round series, and the forged ones share the ceiling's. *)
let test_bridge_rounds_bounded () =
  let eng : int Sim.Engine.t = Sim.Engine.create ~n:2 ~seed:3 () in
  let metrics = Obs.Metrics.create () in
  Obs.Bridge.attach eng ~metrics ~tag_of:(fun _ -> "M") ~round_of:(fun r -> Some r) ();
  Sim.Engine.set_handler eng 0 (fun _ -> ());
  Sim.Engine.set_handler eng 1 (fun _ -> ());
  let ceiling = Sim.Ledger.round_ceiling in
  let forged = [ max_int; 1 lsl 40; min_int ] @ List.init 3000 (fun r -> r) in
  List.iter (fun r -> Sim.Engine.send eng ~src:0 ~dst:1 ~words:1 r) forged;
  let rounds =
    Obs.Metrics.fold_counters metrics ~init:0 ~f:(fun acc ~name ~labels:_ _ ->
        if String.equal name "round_msgs" then acc + 1 else acc)
  in
  Alcotest.(check int) "one series per row" (ceiling + 1) rounds;
  let at r = Obs.Metrics.counter_value metrics ~labels:[ ("round", string_of_int r) ] "round_msgs" in
  Alcotest.(check int) "max_int, 1 lsl 40 and 1024..2999 share the ceiling" (2 + 3000 - ceiling)
    (at ceiling);
  Alcotest.(check int) "min_int shares row 0" 2 (at 0);
  Alcotest.(check int) "a real round keeps its own" 1 (at 7)

(* ------------------------------- spans ------------------------------- *)

let test_span_nesting () =
  let clock, set = Obs.Span.manual_clock () in
  let t = Obs.Span.create clock in
  set 0 0.0;
  Obs.Span.with_span t "outer" (fun () ->
      set 1 1.0;
      Obs.Span.with_span t ~pid:3 "inner" (fun () -> set 2 2.0);
      Alcotest.(check int) "back to one open span" 1 (Obs.Span.nesting t);
      set 5 5.0);
  let spans = Obs.Span.completed t in
  Alcotest.(check (list string)) "completion order: inner closes first" [ "inner"; "outer" ]
    (List.map (fun s -> s.Obs.Span.name) spans);
  (match spans with
  | [ inner; outer ] ->
      Alcotest.(check int) "inner nest" 1 inner.Obs.Span.nest;
      Alcotest.(check int) "outer nest" 0 outer.Obs.Span.nest;
      Alcotest.(check bool) "inner pid recorded" true (inner.Obs.Span.pid = Some 3);
      Alcotest.(check int) "inner begin step" 1 inner.Obs.Span.begin_step;
      Alcotest.(check int) "inner end step" 2 inner.Obs.Span.end_step;
      Alcotest.(check int) "outer spans the whole window" 5 outer.Obs.Span.end_step
  | _ -> Alcotest.fail "expected two spans");
  Alcotest.check_raises "end with nothing open"
    (Invalid_argument "Obs.Span.end_span: no open span") (fun () -> Obs.Span.end_span t)

let test_span_closes_on_raise () =
  let clock, set = Obs.Span.manual_clock () in
  let t = Obs.Span.create clock in
  set 0 0.0;
  (try Obs.Span.with_span t "doomed" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite the raise" 1 (List.length (Obs.Span.completed t));
  Alcotest.(check int) "nothing left open" 0 (Obs.Span.nesting t)

(* --------------------------- probe passivity --------------------------- *)

let outcome_fingerprint (o : Core.Runner.outcome) =
  Format.asprintf "%a|decisions=%s" Core.Runner.pp_outcome o
    (String.concat ","
       (List.map (fun (p, d) -> Printf.sprintf "%d:%d" p d) o.Core.Runner.decisions))

let test_probe_is_passive () =
  for seed = 1 to 4 do
    let plain = run_ba ~seed () in
    let metrics = Obs.Metrics.create () in
    let observed =
      run_ba ~probe:(fun eng -> Core.Instrument.attach_ba eng ~metrics) ~seed ()
    in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: outcome unchanged under instrumentation" seed)
      (outcome_fingerprint plain) (outcome_fingerprint observed);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: the probe did observe traffic" seed)
      true
      (Obs.Metrics.fold_counters metrics ~init:0 ~f:(fun acc ~name:_ ~labels:_ v -> acc + v) > 0)
  done

(* What attaching all three observers (metrics bridge, event trace,
   word ledger) costs in allocated words per delivery, on a fixed-seed
   n = 64 run against the same run unobserved, both after a warm-up run
   that fills the keyring's caches.  The figure covers the trace ring's
   chunks and the registry's series as well as the per-delivery path.
   It reads 10.0 words per delivery with the exact counter.  It read
   24.4 (24.0 with the minor term of [Gc.counters]) while the ring grew
   by copying its arrays and every delivery boxed its latency, and 712
   for per-envelope observers.  The bound leaves room for a different
   compiler or runtime, and a per-envelope Bridge is far above it. *)
let observed_words_per_delivery () =
  let n = 64 in
  let params = Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n () in
  let keyring = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"obs-alloc" () in
  let inputs = Array.init n (fun i -> i mod 2) in
  let run probe = Core.Runner.run_ba ?probe ~keyring ~params ~inputs ~seed:5 () in
  let measure probe =
    let a0 = Tutil.allocated_words () in
    let o = run probe in
    (Tutil.allocated_words () -. a0, o)
  in
  ignore (run None : Core.Runner.outcome);
  let plain, o = measure None in
  let observe eng =
    Core.Instrument.attach_ba eng ~metrics:(Obs.Metrics.create ());
    Sim.Trace.attach (Sim.Trace.create ()) eng;
    Core.Instrument.attach_ba_ledger eng (Sim.Ledger.create ())
  in
  let observed, o' = measure (Some observe) in
  Alcotest.(check string) "observers leave the run unchanged" (outcome_fingerprint o)
    (outcome_fingerprint o');
  (observed -. plain) /. float_of_int o.Core.Runner.steps

let test_observer_alloc_per_delivery () =
  let per_delivery = observed_words_per_delivery () in
  if per_delivery > 20.0 then
    Alcotest.failf "observers allocate %.1f words per delivery (bound 20)" per_delivery

let test_metrics_doc_deterministic () =
  let doc seed =
    let metrics = Obs.Metrics.create () in
    let o = run_ba ~probe:(fun eng -> Core.Instrument.attach_ba eng ~metrics) ~seed () in
    Obs.Json.to_string
      (Core.Instrument.metrics_doc ~params:(Lazy.force params)
         ~outcomes:[ Core.Instrument.outcome_json o ] ~metrics ())
  in
  Alcotest.(check string) "equal seeds produce byte-identical documents" (doc 11) (doc 11);
  Alcotest.(check bool) "different seeds differ" true (doc 11 <> doc 12)

let test_jsonl_deterministic () =
  let lines seed =
    let trace = Sim.Trace.create () in
    let (_ : Core.Runner.outcome) =
      run_ba ~probe:(fun eng -> Sim.Trace.attach trace eng) ~seed ()
    in
    Obs.Export.jsonl_to_string (Obs.Export.trace_jsonl ~run:0 trace)
  in
  let a = lines 21 and b = lines 21 in
  Alcotest.(check string) "equal seeds produce byte-identical JSONL" a b;
  (* Every line must reparse on its own. *)
  String.split_on_char '\n' a
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun l ->
         match Obs.Json.of_string l with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "bad JSONL line %S: %s" l e)

let test_chrome_trace_shape () =
  let trace = Sim.Trace.create () in
  let metrics = Obs.Metrics.create () in
  let (_ : Core.Runner.outcome) =
    run_ba
      ~probe:(fun eng ->
        Core.Instrument.attach_ba eng ~metrics;
        Sim.Trace.attach trace eng)
      ~seed:31 ()
  in
  let doc =
    match Obs.Json.of_string (Obs.Export.chrome_to_string (Obs.Export.chrome_of_trace ~pid:0 trace)) with
    | Ok d -> d
    | Error e -> Alcotest.failf "Chrome trace does not parse: %s" e
  in
  let events =
    match Obs.Json.member "traceEvents" doc with Some l -> Obs.Json.to_list l | None -> []
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let phases =
    List.filter_map
      (fun e -> Option.bind (Obs.Json.member "ph" e) Obs.Json.to_string_opt)
      events
  in
  Alcotest.(check bool) "only b/e/i phases from a message trace" true
    (List.for_all (fun p -> p = "b" || p = "e" || p = "i") phases);
  (* Every async end must close an opened id; begins may stay open for
     messages still in flight when the run decided. *)
  let ids p =
    List.filter_map
      (fun e ->
        match Option.bind (Obs.Json.member "ph" e) Obs.Json.to_string_opt with
        | Some p' when p' = p -> Option.bind (Obs.Json.member "id" e) Obs.Json.to_int_opt
        | _ -> None)
      events
  in
  let begins = ids "b" and ends = ids "e" in
  Alcotest.(check bool) "at least one delivery closed" true (ends <> []);
  Alcotest.(check bool) "no end without a begin" true
    (List.for_all (fun id -> List.mem id begins) ends)

(* --------------------- emitter and exporter references --------------------- *)

(* The emitter and the two trace exporters as they were before the
   emitter lost its iterator closures and the exporters began sharing
   members: strings escaped one character at a time through
   [String.iter], containers through [List.iteri], integers through
   [string_of_int], one fresh member per field and a [Printf.sprintf]
   name per Chrome event.  The current code must match them byte for
   byte. *)
module Reference = struct
  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_repr f =
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

  let rec to_buffer buf = function
    | Obs.Json.Null -> Buffer.add_string buf "null"
    | Obs.Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Obs.Json.Int i -> Buffer.add_string buf (string_of_int i)
    | Obs.Json.Float f ->
        if not (Float.is_finite f) then Buffer.add_string buf "null"
        else Buffer.add_string buf (float_repr f)
    | Obs.Json.Str s -> escape_to buf s
    | Obs.Json.List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            to_buffer buf x)
          xs;
        Buffer.add_char buf ']'
    | Obs.Json.Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_to buf k;
            Buffer.add_char buf ':';
            to_buffer buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    to_buffer buf v;
    Buffer.contents buf

  let jsonl values = String.concat "" (List.map (fun v -> to_string v ^ "\n") values)

  let trace_jsonl ~run trace =
    let open Obs.Json in
    let record = function
      | Sim.Trace.Sent { step; id; src; dst; depth; words } ->
          Obj
            [
              ("ev", Str "send");
              ("run", Int run);
              ("step", Int step);
              ("id", Int id);
              ("src", Int src);
              ("dst", Int dst);
              ("depth", Int depth);
              ("words", Int words);
            ]
      | Sim.Trace.Delivered { step; id; src; dst; depth } ->
          Obj
            [
              ("ev", Str "deliver");
              ("run", Int run);
              ("step", Int step);
              ("id", Int id);
              ("src", Int src);
              ("dst", Int dst);
              ("depth", Int depth);
            ]
      | Sim.Trace.Corrupted { step; pid } ->
          Obj [ ("ev", Str "corrupt"); ("run", Int run); ("step", Int step); ("pid", Int pid) ]
    in
    List.rev (Sim.Trace.fold trace ~init:[] ~f:(fun acc e -> record e :: acc))

  let chrome_of_trace ~pid trace =
    let open Obs.Json in
    let ev = function
      | Sim.Trace.Sent { step; id; src; dst; depth; words } ->
          Obj
            [
              ("name", Str (Printf.sprintf "msg %d->%d" src dst));
              ("cat", Str "msg");
              ("ph", Str "b");
              ("id", Int id);
              ("ts", Int step);
              ("pid", Int pid);
              ("tid", Int src);
              ("args", Obj [ ("words", Int words); ("depth", Int depth) ]);
            ]
      | Sim.Trace.Delivered { step; id; src; dst; _ } ->
          Obj
            [
              ("name", Str (Printf.sprintf "msg %d->%d" src dst));
              ("cat", Str "msg");
              ("ph", Str "e");
              ("id", Int id);
              ("ts", Int step);
              ("pid", Int pid);
              ("tid", Int src);
            ]
      | Sim.Trace.Corrupted { step; pid = victim } ->
          Obj
            [
              ("name", Str (Printf.sprintf "corrupt %d" victim));
              ("cat", Str "fault");
              ("ph", Str "i");
              ("s", Str "p");
              ("ts", Int step);
              ("pid", Int pid);
              ("tid", Int victim);
            ]
    in
    List.rev (Sim.Trace.fold trace ~init:[] ~f:(fun acc e -> ev e :: acc))
end

(* Every byte alone, all 256 in one string, runs of plain bytes around
   escapes, quotes, backslashes and multi-byte UTF-8 (2, 3 and 4 bytes,
   U+2028), as string values and as object keys. *)
let test_emitter_matches_reference () =
  let all_bytes = String.init 256 Char.chr in
  let strings =
    List.init 256 (fun b -> String.make 1 (Char.chr b))
    @ [
        "";
        all_bytes;
        "plain key";
        "\"quoted\"";
        "back\\slash";
        "\\\"\\\"";
        "tail\x1f";
        "\x00head";
        "mid\x7fdle\x80";
        "caf\xc3\xa9 \xe2\x82\xac \xf0\x9d\x84\x9e \xe2\x80\xa8";
        "mixed \xc3\xa9\n\t\"\\ \x01 done";
      ]
  in
  let open Obs.Json in
  let values =
    List.map (fun s -> Str s) strings
    @ [
        Obj (List.map (fun s -> (s, Str s)) strings);
        List (List.map (fun s -> Obj [ (s, Int (String.length s)) ]) strings);
        List [];
        Obj [];
        List [ List []; Obj []; Null; Bool true; Bool false ];
        Obj [ ("f", Float 0.1); ("nan", Float Float.nan); ("i", Int min_int); ("j", Int max_int) ];
      ]
  in
  List.iter
    (fun v ->
      let want = Reference.to_string v in
      Alcotest.(check string) (String.escaped want) want (to_string v);
      let buf = Buffer.create 1 in
      to_buffer buf v;
      Alcotest.(check string) "to_buffer = to_string" want (Buffer.contents buf))
    values

(* A traced n = 16 run under adaptive crashes, with one more process
   crashed after it returns, so the ring's newest event is a Corrupted
   one whether or not it wrapped. *)
let corrupted_trace ~capacity =
  let trace = Sim.Trace.create ~capacity () in
  let params = Lazy.force params in
  let engine = ref None in
  let (_ : Core.Runner.outcome) =
    Core.Runner.run_ba
      ~probe:(fun eng ->
        Sim.Trace.attach trace eng;
        engine := Some eng)
      ~corruption:(Core.Runner.Crash_adaptive_first params.Core.Params.f)
      ~keyring:(Lazy.force keyring) ~params
      ~inputs:(Array.init n (fun p -> p mod 2))
      ~seed:9 ()
  in
  Option.iter (fun eng -> Sim.Engine.corrupt_crash eng (n - 1)) !engine;
  trace

let test_exporters_match_reference () =
  List.iter
    (fun (what, capacity, wraps) ->
      let trace = corrupted_trace ~capacity in
      Alcotest.(check bool) (what ^ ": ring wraps as intended") wraps (Sim.Trace.dropped trace > 0);
      Alcotest.(check bool)
        (what ^ ": holds a Corrupted event")
        true
        (Sim.Trace.corrupted_pids trace <> []);
      Alcotest.(check string) (what ^ ": trace_jsonl ~run:3")
        (Reference.jsonl (Reference.trace_jsonl ~run:3 trace))
        (Obs.Export.jsonl_to_string (Obs.Export.trace_jsonl ~run:3 trace));
      Alcotest.(check string) (what ^ ": chrome_of_trace ~pid:2")
        (Reference.to_string
           (Obs.Json.Obj
              [
                ("traceEvents", Obs.Json.List (Reference.chrome_of_trace ~pid:2 trace));
                ("displayTimeUnit", Obs.Json.Str "ms");
              ]))
        (Obs.Export.chrome_to_string (Obs.Export.chrome_of_trace ~pid:2 trace)))
    [ ("capacity 300", 300, true); ("default capacity", 100_000, false) ]

(* What exporting a ring costs: [trace_jsonl] plus rendering its records
   into a buffer presized to hold them, read with the exact counter, on
   a ring that wrapped.  It reads 41.9 words per event, all of it
   building the records and the events the ring's fold passes, since
   rendering allocates nothing.  It read 104.7 when every record had its
   own members and the emitter allocated closures (about 65 to build
   and 40 to render). *)
let test_export_alloc_per_event () =
  let trace = corrupted_trace ~capacity:2000 in
  let buf = Buffer.create (1 lsl 20) in
  let w0 = Tutil.allocated_words () in
  List.iter
    (fun r ->
      Obs.Json.to_buffer buf r;
      Buffer.add_char buf '\n')
    (Obs.Export.trace_jsonl ~run:1 trace);
  let per_event = (Tutil.allocated_words () -. w0) /. float_of_int (Sim.Trace.length trace) in
  Alcotest.(check bool) "the ring wrapped" true (Sim.Trace.dropped trace > 0);
  Alcotest.(check bool) "the buffer was not outgrown" true (Buffer.length buf < 1 lsl 20);
  if per_event > 50.0 then
    Alcotest.failf "exporting allocates %.1f words per event (bound 50)" per_event

(* --------------------------- sharded metrics ------------------------- *)

let test_sharded_claims () =
  Alcotest.check_raises "workers <= 0 rejected"
    (Invalid_argument "Obs.Metrics.Sharded.create: workers must be positive") (fun () ->
      ignore (Obs.Metrics.Sharded.create ~workers:0));
  let s = Obs.Metrics.Sharded.create ~workers:2 in
  Alcotest.(check int) "worker count" 2 (Obs.Metrics.Sharded.workers s);
  let r0 = Obs.Metrics.Sharded.claim s 0 in
  Obs.Metrics.incr r0 "c";
  (* double-claim is the aliasing accident the guard exists to catch *)
  (try
     ignore (Obs.Metrics.Sharded.claim s 0);
     Alcotest.fail "double claim not rejected"
   with Invalid_argument _ -> ());
  (* the other shard is still claimable, and release_all resets both *)
  ignore (Obs.Metrics.Sharded.claim s 1);
  Obs.Metrics.Sharded.release_all s;
  let r0' = Obs.Metrics.Sharded.claim s 0 in
  Obs.Metrics.incr r0' "c";
  (try
     ignore (Obs.Metrics.Sharded.shard s 2);
     Alcotest.fail "out-of-range shard not rejected"
   with Invalid_argument _ -> ());
  Alcotest.(check string) "claims do not reset counts: both incrs merged"
    (Obs.Json.to_string
       (Obs.Metrics.to_json
          (let direct = Obs.Metrics.create () in
           Obs.Metrics.incr direct ~by:2 "c";
           direct)))
    (Obs.Json.to_string (Obs.Metrics.to_json (Obs.Metrics.Sharded.merged s)))

(* Merging shards must reproduce exactly what a single registry would
   have recorded, with counters and histograms interleaved across
   workers. *)
let test_sharded_merge_equals_direct () =
  let s = Obs.Metrics.Sharded.create ~workers:3 in
  let direct = Obs.Metrics.create () in
  for i = 0 to 29 do
    let shard = Obs.Metrics.Sharded.shard s (i mod 3) in
    let labels = [ ("kind", if i mod 2 = 0 then "even" else "odd") ] in
    Obs.Metrics.incr shard ~labels "trials";
    Obs.Metrics.incr direct ~labels "trials";
    Obs.Metrics.observe shard ~labels "words" (float_of_int (i * i));
    Obs.Metrics.observe direct ~labels "words" (float_of_int (i * i))
  done;
  Alcotest.(check string) "merged = direct"
    (Obs.Json.to_string (Obs.Metrics.to_json direct))
    (Obs.Json.to_string (Obs.Metrics.to_json (Obs.Metrics.Sharded.merged s)))

(* --------------------------- bench compare --------------------------- *)

let bench_doc rows =
  let open Obs.Json in
  Obj
    [
      ("schema", Str Obs.Export.bench_schema);
      ( "rows",
        List
          (List.map
             (fun (table, name, ns) ->
               Obj [ ("table", Str table); ("name", Str name); ("ns_per_op", Float ns) ])
             rows) );
    ]

let test_bench_compare () =
  let old_doc =
    bench_doc [ ("b1", "sha", 100.0); ("b1", "vrf", 200.0); ("scaling", "ignored", 1.0) ]
  in
  let new_doc =
    bench_doc [ ("b1", "sha", 110.0); ("b1", "vrf", 300.0); ("b1", "extra", 5.0) ]
  in
  match Obs.Export.bench_compare ~threshold:0.25 old_doc new_doc with
  | Error e -> Alcotest.failf "compare failed: %s" e
  | Ok deltas ->
      (* rows are paired by name; rows present on only one side skipped *)
      Alcotest.(check (list string)) "paired rows" [ "sha"; "vrf" ]
        (List.map (fun d -> d.Obs.Export.cmp_name) deltas);
      let sha = List.nth deltas 0 and vrf = List.nth deltas 1 in
      Alcotest.(check bool) "+10% under 25% threshold" false sha.Obs.Export.cmp_regressed;
      Alcotest.(check bool) "+50% over 25% threshold" true vrf.Obs.Export.cmp_regressed;
      Alcotest.(check (float 1e-9)) "ratio" 1.5 vrf.Obs.Export.cmp_ratio

let test_bench_compare_errors () =
  let ok = bench_doc [ ("b1", "sha", 100.0) ] in
  let expect_error what old_doc new_doc =
    match Obs.Export.bench_compare ~threshold:0.25 old_doc new_doc with
    | Ok _ -> Alcotest.failf "%s: expected Error" what
    | Error _ -> ()
  in
  expect_error "old wrong schema" (Obs.Json.Obj [ ("schema", Obs.Json.Str "x") ]) ok;
  expect_error "new missing schema" ok (Obs.Json.Obj []);
  expect_error "old without b1 rows" (bench_doc [ ("scaling", "s", 1.0) ]) ok;
  expect_error "new without b1 rows" ok (bench_doc []);
  List.iter
    (fun threshold ->
      Alcotest.check_raises
        (Printf.sprintf "threshold %f rejected" threshold)
        (Invalid_argument "Export.bench_compare: threshold must be finite and >= 0")
        (fun () -> ignore (Obs.Export.bench_compare ~threshold ok ok)))
    [ -0.1; Float.nan; Float.infinity ]

(* ------------------------- per-worker tracks ------------------------- *)

let test_chrome_worker_tracks () =
  let clock, tick = Obs.Span.manual_clock () in
  let rec_ = Obs.Span.create clock in
  tick 1 0.1;
  Obs.Span.with_span rec_ ~pid:7 "trial" (fun () -> tick 2 0.2);
  (* default: the span's own pid labels the track *)
  let tid_of ev =
    match Obs.Json.member "tid" ev with Some (Obs.Json.Int t) -> t | _ -> -1
  in
  (match Obs.Export.chrome_of_spans ~pid:0 rec_ with
  | [ ev ] -> Alcotest.(check int) "span pid becomes tid" 7 (tid_of ev)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (* explicit ~tid (the Exec worker slot) overrides it *)
  (match Obs.Export.chrome_of_spans ~pid:0 ~tid:3 rec_ with
  | [ ev ] -> Alcotest.(check int) "explicit tid wins" 3 (tid_of ev)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (* thread_name metadata event names the track in the viewer *)
  let meta = Obs.Export.chrome_thread_name ~pid:0 ~tid:3 "worker 3" in
  let str k =
    match Obs.Json.member k meta with Some (Obs.Json.Str s) -> s | _ -> "?"
  in
  Alcotest.(check string) "metadata phase" "M" (str "ph");
  Alcotest.(check string) "metadata name" "thread_name" (str "name");
  Alcotest.(check int) "metadata tid" 3 (tid_of meta);
  match Obs.Json.member "args" meta with
  | Some args ->
      Alcotest.(check string) "track label" "worker 3"
        (match Obs.Json.member "name" args with Some (Obs.Json.Str s) -> s | _ -> "?")
  | None -> Alcotest.fail "thread_name without args"

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json single line" `Quick test_json_single_line;
    Alcotest.test_case "json non-finite floats" `Quick test_json_nonfinite_floats;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "json ints match string_of_int" `Quick test_json_ints_match_string_of_int;
    Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "labels canonical" `Quick test_labels_canonical;
    Alcotest.test_case "series handles" `Quick test_series_handles;
    Alcotest.test_case "bridge round series bounded" `Quick test_bridge_rounds_bounded;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span closes on raise" `Quick test_span_closes_on_raise;
    Alcotest.test_case "probe is passive" `Quick test_probe_is_passive;
    Alcotest.test_case "observer allocation per delivery" `Quick test_observer_alloc_per_delivery;
    Alcotest.test_case "metrics doc deterministic" `Quick test_metrics_doc_deterministic;
    Alcotest.test_case "jsonl deterministic" `Quick test_jsonl_deterministic;
    Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
    Alcotest.test_case "emitter matches the reference" `Quick test_emitter_matches_reference;
    Alcotest.test_case "exporters match the reference" `Quick test_exporters_match_reference;
    Alcotest.test_case "export allocation per event" `Quick test_export_alloc_per_event;
    Alcotest.test_case "sharded claim guard" `Quick test_sharded_claims;
    Alcotest.test_case "sharded merge equals direct" `Quick test_sharded_merge_equals_direct;
    Alcotest.test_case "bench compare deltas" `Quick test_bench_compare;
    Alcotest.test_case "bench compare errors" `Quick test_bench_compare_errors;
    Alcotest.test_case "chrome per-worker tracks" `Quick test_chrome_worker_tracks;
  ]
