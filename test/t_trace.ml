(* Trace: event recording, ring-buffer behaviour, forensic queries. *)

open Sim

let run_traced ?(capacity = 100_000) f =
  let eng : int Engine.t = Engine.create ~n:4 ~seed:1 () in
  let trace = Trace.create ~capacity () in
  Trace.attach trace eng;
  f eng;
  ignore (Engine.run eng ~until:(fun () -> false));
  trace

let test_records_send_and_delivery () =
  let trace =
    run_traced (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun _ -> ())
        done;
        Engine.broadcast eng ~src:0 ~words:2 7)
  in
  (* 4 sends + 4 deliveries *)
  Alcotest.(check int) "8 events" 8 (Trace.length trace);
  Alcotest.(check int) "4 sends by 0" 4 (Trace.sends_by trace 0);
  Alcotest.(check int) "no drops" 0 (Trace.dropped trace)

let test_deliveries_of () =
  let trace =
    run_traced (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun _ -> ())
        done;
        Engine.send eng ~src:1 ~dst:2 ~words:1 0;
        Engine.send eng ~src:1 ~dst:3 ~words:1 0)
  in
  Alcotest.(check (list int)) "message 0 delivered to 2" [ 2 ] (Trace.deliveries_of trace ~id:0);
  Alcotest.(check (list int)) "message 1 delivered to 3" [ 3 ] (Trace.deliveries_of trace ~id:1)

let test_corruption_recorded () =
  let trace =
    run_traced (fun eng ->
        Engine.set_handler eng 0 (fun _ -> ());
        Engine.corrupt_crash eng 2;
        Engine.corrupt_byzantine eng 3 (fun _ -> ()))
  in
  Alcotest.(check (list int)) "corrupted pids" [ 2; 3 ] (Trace.corrupted_pids trace)

let test_ring_buffer_drops_oldest () =
  let trace =
    run_traced ~capacity:5 (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun _ -> ())
        done;
        for i = 0 to 9 do
          Engine.send eng ~src:0 ~dst:1 ~words:1 i
        done)
  in
  (* 10 sends + 10 deliveries = 20 events into capacity 5. *)
  Alcotest.(check int) "length capped" 5 (Trace.length trace);
  Alcotest.(check int) "dropped count" 15 (Trace.dropped trace);
  (* The survivors are the 5 newest events. *)
  let all = Trace.events trace in
  Alcotest.(check int) "events list length" 5 (List.length all)

let test_max_depth () =
  let trace =
    run_traced (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun e ->
              if pid < 3 then Engine.send eng ~src:pid ~dst:(pid + 1) ~words:1 e.Envelope.payload)
        done;
        Engine.send eng ~src:0 ~dst:1 ~words:1 0)
  in
  Alcotest.(check int) "depth of the chain" 3 (Trace.max_depth trace)

let test_fold_matches_events () =
  let trace =
    run_traced (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun _ -> ())
        done;
        Engine.broadcast eng ~src:0 ~words:2 7;
        Engine.corrupt_crash eng 3)
  in
  let via_fold = List.rev (Trace.fold trace ~init:[] ~f:(fun acc e -> e :: acc)) in
  Alcotest.(check bool) "fold visits exactly the events list, oldest first" true
    (via_fold = Trace.events trace);
  let count = Trace.fold trace ~init:0 ~f:(fun n _ -> n + 1) in
  Alcotest.(check int) "fold count = length" (Trace.length trace) count;
  let via_iter = ref [] in
  Trace.iter trace ~f:(fun e -> via_iter := e :: !via_iter);
  Alcotest.(check bool) "iter agrees with fold" true (List.rev !via_iter = via_fold)

let test_fold_after_wraparound () =
  let trace =
    run_traced ~capacity:5 (fun eng ->
        for pid = 0 to 3 do
          Engine.set_handler eng pid (fun _ -> ())
        done;
        for i = 0 to 9 do
          Engine.send eng ~src:0 ~dst:1 ~words:1 i
        done)
  in
  (* After dropping, fold must walk the surviving window oldest-first:
     steps strictly increase across the visited events. *)
  let monotone, _ =
    Trace.fold trace ~init:(true, -1) ~f:(fun (ok, prev) e ->
        let step =
          match e with
          | Trace.Sent { step; _ } | Trace.Delivered { step; _ } | Trace.Corrupted { step; _ } ->
              step
        in
        (ok && step >= prev, step))
  in
  Alcotest.(check bool) "steps non-decreasing after wraparound" true monotone;
  Alcotest.(check int) "fold sees only live slots" 5 (Trace.fold trace ~init:0 ~f:(fun n _ -> n + 1));
  Alcotest.(check bool) "fold_right walks the same window newest first" true
    (Trace.fold_right trace ~init:[] ~f:List.cons
    = List.rev (Trace.fold trace ~init:[] ~f:(fun acc e -> e :: acc)))

let test_attach_does_not_change_execution () =
  let run traced =
    let eng : int Engine.t = Engine.create ~n:4 ~seed:9 () in
    if traced then begin
      let t = Trace.create () in
      Trace.attach t eng
    end;
    let log = ref [] in
    for pid = 0 to 3 do
      Engine.set_handler eng pid (fun e -> log := (pid, e.Envelope.id) :: !log)
    done;
    for i = 0 to 20 do
      Engine.send eng ~src:(i mod 4) ~dst:((i * 3) mod 4) ~words:1 i
    done;
    ignore (Engine.run eng ~until:(fun () -> false));
    !log
  in
  Alcotest.(check bool) "same delivery order" true (run true = run false)

(* The ring fills chunk by chunk until it reaches its capacity and wraps
   only then.  Two traces of one run, one big enough to keep everything,
   must agree on the window the smaller one keeps, across the chunk
   boundaries (1024, 2048, ...), a capacity of exactly one chunk, one
   whose last chunk is cut short and one below a chunk, and on
   broadcasts written as n Sent events at once. *)
let test_ring_growth_and_window () =
  let record capacities =
    let eng : int Engine.t = Engine.create ~n:8 ~seed:4 () in
    let traces = List.map (fun capacity -> Trace.create ~capacity ()) capacities in
    List.iter (fun t -> Trace.attach t eng) traces;
    for pid = 0 to 7 do
      Engine.set_handler eng pid (fun e ->
          if e.Envelope.payload < 9 && (pid + e.Envelope.payload) mod 4 = 0 then
            Engine.broadcast eng ~src:pid ~words:1 (e.Envelope.payload + 1))
    done;
    Engine.broadcast eng ~src:0 ~words:1 0;
    Engine.corrupt_crash eng 7;
    ignore (Engine.run eng ~until:(fun () -> false));
    traces
  in
  match record [ 1_000_000; 3000; 1024; 7 ] with
  | [ all; mid; exact; tiny ] ->
      let events = Array.of_list (Trace.events all) in
      let total = Array.length events in
      Alcotest.(check bool) "the run outgrows the initial slots" true (total > 3000);
      Alcotest.(check int) "nothing dropped at a large capacity" 0 (Trace.dropped all);
      List.iter
        (fun (t, cap) ->
          Alcotest.(check int) (Printf.sprintf "length at %d" cap) cap (Trace.length t);
          Alcotest.(check int) (Printf.sprintf "dropped at %d" cap) (total - cap) (Trace.dropped t);
          Alcotest.(check bool)
            (Printf.sprintf "capacity %d keeps the newest window" cap)
            true
            (Trace.events t = Array.to_list (Array.sub events (total - cap) cap)))
        [ (mid, 3000); (exact, 1024); (tiny, 7) ]
  | _ -> Alcotest.fail "four traces expected"

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_pp_smoke () =
  let trace =
    run_traced (fun eng ->
        Engine.set_handler eng 0 (fun _ -> ());
        Engine.set_handler eng 1 (fun _ -> ());
        Engine.send eng ~src:0 ~dst:1 ~words:1 0;
        Engine.corrupt_crash eng 3)
  in
  let s = Format.asprintf "%a" Trace.pp trace in
  Alcotest.(check bool) "mentions SEND" true (contains s "SEND");
  Alcotest.(check bool) "mentions CORRUPT" true (contains s "CORRUPT")

let suite =
  [
    Alcotest.test_case "records sends/deliveries" `Quick test_records_send_and_delivery;
    Alcotest.test_case "deliveries_of" `Quick test_deliveries_of;
    Alcotest.test_case "corruption recorded" `Quick test_corruption_recorded;
    Alcotest.test_case "ring buffer" `Quick test_ring_buffer_drops_oldest;
    Alcotest.test_case "max depth" `Quick test_max_depth;
    Alcotest.test_case "fold matches events" `Quick test_fold_matches_events;
    Alcotest.test_case "fold after wraparound" `Quick test_fold_after_wraparound;
    Alcotest.test_case "ring growth keeps the newest window" `Quick test_ring_growth_and_window;
    Alcotest.test_case "attach is passive" `Quick test_attach_does_not_change_execution;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
  ]
