(* The simulator: heap ordering, engine delivery semantics, reliability,
   determinism, corruption, metrics, causal depth, schedulers. *)

open Sim

let test_heap_order () =
  let h = Heap.create () in
  List.iteri (fun i p -> Heap.push h p i (int_of_float p)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.map (fun (_, _, v) -> v) (Heap.drain h) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] order

let test_heap_tiebreak () =
  let h = Heap.create () in
  Heap.push h 1.0 2 20;
  Heap.push h 1.0 1 10;
  Heap.push h 1.0 3 30;
  let order = List.map (fun (_, _, v) -> v) (Heap.drain h) in
  Alcotest.(check (list int)) "seq tie-break" [ 10; 20; 30 ] order

let test_heap_interleaved () =
  let h = Heap.create () in
  let r = Crypto.Rng.create 5 in
  let reference = ref [] in
  for i = 0 to 999 do
    let p = Crypto.Rng.float r 100.0 in
    Heap.push h p i i;
    reference := (p, i) :: !reference
  done;
  let popped = List.map (fun (p, _, v) -> (p, v)) (Heap.drain h) in
  Alcotest.(check (list (pair (float 0.0) int)))
    "heapsort" (List.sort compare !reference) popped;
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_heap_size () =
  let h = Heap.create () in
  Alcotest.(check int) "empty" 0 (Heap.size h);
  Heap.push h 1.0 0 0;
  Heap.push h 2.0 1 1;
  Alcotest.(check int) "two" 2 (Heap.size h);
  ignore (Heap.pop h);
  Alcotest.(check int) "one" 1 (Heap.size h);
  Alcotest.(check bool) "peek" true (Heap.peek h <> None)

(* ---------------- Engine ---------------- *)

let test_exactly_once_delivery () =
  let eng : int Engine.t = Engine.create ~n:4 ~seed:1 () in
  let received = Array.make 4 [] in
  for pid = 0 to 3 do
    Engine.set_handler eng pid (fun e ->
        received.(pid) <- e.Envelope.payload :: received.(pid))
  done;
  Engine.broadcast eng ~src:0 ~words:1 7;
  let r = Engine.run eng ~until:(fun () -> false) in
  Alcotest.(check bool) "quiescent" true (r = Engine.Quiescent);
  Array.iteri
    (fun i msgs -> Alcotest.(check (list int)) (Printf.sprintf "pid %d got exactly one" i) [ 7 ] msgs)
    received

let test_reliable_all_delivered () =
  let eng : int Engine.t = Engine.create ~n:8 ~seed:2 () in
  let count = ref 0 in
  for pid = 0 to 7 do
    Engine.set_handler eng pid (fun _ -> incr count)
  done;
  for i = 0 to 99 do
    Engine.send eng ~src:(i mod 8) ~dst:((i * 3) mod 8) ~words:1 i
  done;
  ignore (Engine.run eng ~until:(fun () -> false));
  Alcotest.(check int) "all 100 delivered" 100 !count

let test_determinism () =
  let run seed =
    let eng : int Engine.t = Engine.create ~n:4 ~seed () in
    let log = ref [] in
    for pid = 0 to 3 do
      Engine.set_handler eng pid (fun e ->
          log := (pid, e.Envelope.payload) :: !log;
          (* cascade: forward once *)
          if e.Envelope.payload < 3 then
            Engine.send eng ~src:pid ~dst:((pid + 1) mod 4) ~words:1 (e.Envelope.payload + 1))
    done;
    Engine.send eng ~src:0 ~dst:1 ~words:1 0;
    ignore (Engine.run eng ~until:(fun () -> false));
    !log
  in
  Alcotest.(check bool) "same seed, same trace" true (run 7 = run 7);
  Alcotest.(check bool) "cascades happened" true (List.length (run 7) = 4)

let test_crash_drops () =
  let eng : int Engine.t = Engine.create ~n:3 ~seed:3 () in
  let got = ref 0 in
  for pid = 0 to 2 do
    Engine.set_handler eng pid (fun _ -> incr got)
  done;
  Engine.corrupt_crash eng 1;
  Engine.broadcast eng ~src:0 ~words:1 9;
  ignore (Engine.run eng ~until:(fun () -> false));
  Alcotest.(check int) "crashed pid got nothing" 2 !got;
  Alcotest.(check int) "dropped counter" 1 (Engine.metrics eng).Metrics.dropped_at_crashed

let test_crashed_cannot_send () =
  let eng : int Engine.t = Engine.create ~n:3 ~seed:4 () in
  let got = ref 0 in
  for pid = 0 to 2 do
    Engine.set_handler eng pid (fun _ -> incr got)
  done;
  Engine.corrupt_crash eng 0;
  Engine.broadcast eng ~src:0 ~words:1 9;
  ignore (Engine.run eng ~until:(fun () -> false));
  Alcotest.(check int) "no deliveries from crashed source" 0 !got

let test_no_after_fact_removal () =
  (* Messages in flight at corruption time still arrive: the engine
     enforces the paper's no-after-the-fact-removal assumption. *)
  let eng : int Engine.t = Engine.create ~n:2 ~seed:5 () in
  let got = ref [] in
  Engine.set_handler eng 1 (fun e -> got := e.Envelope.payload :: !got);
  Engine.set_handler eng 0 (fun _ -> ());
  Engine.send eng ~src:0 ~dst:1 ~words:1 1;
  Engine.corrupt_crash eng 0;
  (* sent before corruption -> must be delivered *)
  ignore (Engine.run eng ~until:(fun () -> false));
  Alcotest.(check (list int)) "in-flight survives corruption" [ 1 ] !got

let test_byzantine_words_separate () =
  let eng : int Engine.t = Engine.create ~n:3 ~seed:6 () in
  for pid = 0 to 2 do
    Engine.set_handler eng pid (fun _ -> ())
  done;
  Engine.corrupt_byzantine eng 2 (fun _ -> ());
  Engine.send eng ~src:0 ~dst:1 ~words:5 0;
  Engine.send eng ~src:2 ~dst:1 ~words:7 0;
  let m = Engine.metrics eng in
  Alcotest.(check int) "correct words" 5 m.Metrics.correct_words;
  Alcotest.(check int) "byz words" 7 m.Metrics.byz_words;
  Alcotest.(check int) "correct msgs" 1 m.Metrics.correct_msgs;
  Alcotest.(check int) "byz msgs" 1 m.Metrics.byz_msgs

let test_byzantine_handler_runs () =
  let eng : int Engine.t = Engine.create ~n:2 ~seed:7 () in
  let byz_got = ref 0 in
  Engine.set_handler eng 0 (fun _ -> ());
  Engine.corrupt_byzantine eng 1 (fun _ -> incr byz_got);
  Engine.send eng ~src:0 ~dst:1 ~words:1 0;
  ignore (Engine.run eng ~until:(fun () -> false));
  Alcotest.(check int) "byzantine handler invoked" 1 !byz_got

let test_causal_depth () =
  (* Chain 0 -> 1 -> 2 -> 3: depth should be 3 at pid 3. *)
  let eng : int Engine.t = Engine.create ~n:4 ~seed:8 () in
  for pid = 0 to 3 do
    Engine.set_handler eng pid (fun e ->
        if pid < 3 then Engine.send eng ~src:pid ~dst:(pid + 1) ~words:1 e.Envelope.payload)
  done;
  Engine.send eng ~src:0 ~dst:1 ~words:1 0;
  ignore (Engine.run eng ~until:(fun () -> false));
  Alcotest.(check int) "depth at 3" 3 (Engine.depth_of eng 3);
  Alcotest.(check int) "depth at 1" 1 (Engine.depth_of eng 1);
  Alcotest.(check int) "max depth" 3 (Engine.max_correct_depth eng)

let test_concurrent_depth () =
  (* Two parallel messages: depth 1, not 2. *)
  let eng : int Engine.t = Engine.create ~n:3 ~seed:9 () in
  for pid = 0 to 2 do
    Engine.set_handler eng pid (fun _ -> ())
  done;
  Engine.send eng ~src:0 ~dst:2 ~words:1 0;
  Engine.send eng ~src:1 ~dst:2 ~words:1 0;
  ignore (Engine.run eng ~until:(fun () -> false));
  Alcotest.(check int) "parallel depth" 1 (Engine.depth_of eng 2)

let test_run_until_predicate () =
  let eng : int Engine.t = Engine.create ~n:2 ~seed:10 () in
  let count = ref 0 in
  Engine.set_handler eng 0 (fun _ -> ());
  Engine.set_handler eng 1 (fun _ -> incr count);
  for i = 0 to 9 do
    Engine.send eng ~src:0 ~dst:1 ~words:1 i
  done;
  let r = Engine.run eng ~until:(fun () -> !count >= 3) in
  Alcotest.(check bool) "stopped on predicate" true (r = Engine.All_done);
  Alcotest.(check int) "exactly 3" 3 !count

let test_step_limit () =
  let eng : int Engine.t = Engine.create ~n:2 ~seed:11 () in
  (* ping-pong forever *)
  Engine.set_handler eng 0 (fun e -> Engine.send eng ~src:0 ~dst:1 ~words:1 e.Envelope.payload);
  Engine.set_handler eng 1 (fun e -> Engine.send eng ~src:1 ~dst:0 ~words:1 e.Envelope.payload);
  Engine.send eng ~src:0 ~dst:1 ~words:1 0;
  let r = Engine.run ~max_steps:100 eng ~until:(fun () -> false) in
  Alcotest.(check bool) "step limit" true (r = Engine.Step_limit)

(* The send hook runs once per send, the deliver observer once per
   envelope.  At n = 1 a broadcast under a hook is its destination-0
   envelope alone: no empty broadcast record follows it. *)
let test_observers () =
  let counts n =
    let eng : int Engine.t = Engine.create ~n ~seed:12 () in
    let sends = ref 0 and delivers = ref 0 in
    Engine.on_sent eng (fun ~src:_ _ -> incr sends);
    Engine.on_deliver eng (fun _ -> incr delivers);
    for pid = 0 to n - 1 do
      Engine.set_handler eng pid (fun _ -> ())
    done;
    Engine.broadcast eng ~src:0 ~words:1 0;
    Engine.send eng ~src:0 ~dst:(n - 1) ~words:1 1;
    let r = Engine.run eng ~until:(fun () -> false) in
    (!sends, !delivers, (Engine.metrics eng).Metrics.correct_msgs, r)
  in
  let sends, delivers, msgs, r = counts 2 in
  Alcotest.(check (list int)) "n=2: hook per send, observer per envelope" [ 2; 3; 3 ]
    [ sends; delivers; msgs ];
  Alcotest.(check bool) "n=2 quiescent" true (r = Engine.Quiescent);
  let sends, delivers, msgs, r = counts 1 in
  Alcotest.(check (list int)) "n=1: one envelope per send" [ 2; 2; 2 ] [ sends; delivers; msgs ];
  Alcotest.(check bool) "n=1 quiescent" true (r = Engine.Quiescent);
  let eng : int Engine.t = Engine.create ~n:2 ~seed:12 () in
  Engine.on_sent eng (fun ~src m -> if m = 0 then Engine.send eng ~src ~dst:1 ~words:1 1);
  Alcotest.check_raises "a hook that sends breaks the broadcast's ids"
    (Invalid_argument "Engine: a send hook must not send") (fun () ->
      Engine.broadcast eng ~src:0 ~words:1 0)

let test_correct_pids () =
  let eng : int Engine.t = Engine.create ~n:4 ~seed:13 () in
  Engine.corrupt_crash eng 1;
  Engine.corrupt_byzantine eng 3 (fun _ -> ());
  Alcotest.(check (list int)) "correct pids" [ 0; 2 ] (Engine.correct_pids eng);
  Alcotest.(check int) "corrupted count" 2 (Engine.corrupted_count eng);
  Alcotest.(check bool) "is_correct" true (Engine.is_correct eng 0);
  Alcotest.(check bool) "not correct" false (Engine.is_correct eng 1)

(* ---------------- Heap capacity and root ops ---------------- *)

let test_heap_capacity_growth () =
  let h = Heap.create ~capacity:8 () in
  Alcotest.(check int) "hint honoured" 8 (Heap.capacity h);
  for i = 0 to 7 do
    Heap.push h (float_of_int i) i i
  done;
  Alcotest.(check int) "no resize up to hint" 8 (Heap.capacity h);
  Heap.push h 8.0 8 8;
  Alcotest.(check int) "doubles" 16 (Heap.capacity h);
  for i = 9 to 16 do
    Heap.push h (float_of_int i) i i
  done;
  Alcotest.(check int) "doubles again" 32 (Heap.capacity h);
  let popped = List.map (fun (_, _, v) -> v) (Heap.drain h) in
  Alcotest.(check (list int)) "contents survive resizes" (List.init 17 Fun.id) popped

let test_heap_root_ops () =
  (* replace_top must be observationally drop-then-push, and
     top_prio/top_val must agree with peek, across a long random stream. *)
  let r = Crypto.Rng.create 31 in
  let a = Heap.create () and b = Heap.create ~capacity:64 () in
  for i = 0 to 63 do
    let p = Crypto.Rng.float r 10.0 in
    Heap.push a p i i;
    Heap.push b p i i
  done;
  for i = 64 to 1063 do
    Alcotest.(check (float 0.0)) "roots agree" (Heap.top_prio b) (Heap.top_prio a);
    Alcotest.(check int) "root values agree" (Heap.top_val b) (Heap.top_val a);
    (match Heap.peek a with
    | Some (p, _, v) ->
        Alcotest.(check (float 0.0)) "top_prio = peek" p (Heap.top_prio a);
        Alcotest.(check int) "top_val = peek" v (Heap.top_val a)
    | None -> Alcotest.fail "unexpected empty heap");
    let p = Heap.top_prio a +. Crypto.Rng.float r 0.5 in
    Heap.replace_top a p i i;
    Heap.drop b;
    Heap.push b p i i
  done;
  Alcotest.(check bool) "identical drains" true (Heap.drain a = Heap.drain b)

let test_heap_empty_root_raises () =
  let h = Heap.create () in
  Alcotest.check_raises "top_prio" (Invalid_argument "Heap.top_prio: empty") (fun () ->
      ignore (Heap.top_prio h));
  Alcotest.check_raises "top_val" (Invalid_argument "Heap.top_val: empty") (fun () ->
      ignore (Heap.top_val h));
  Alcotest.check_raises "drop" (Invalid_argument "Heap.drop: empty") (fun () -> Heap.drop h);
  Alcotest.check_raises "replace_top" (Invalid_argument "Heap.replace_top: empty") (fun () ->
      Heap.replace_top h 1.0 0 0)

(* ---------------- Bitset ---------------- *)

let test_bitset_basic () =
  let s = Bitset.create 200 in
  Alcotest.(check int) "length" 200 (Bitset.length s);
  Alcotest.(check int) "empty card" 0 (Bitset.card s);
  Alcotest.(check bool) "not mem" false (Bitset.mem s 0);
  List.iter (Bitset.add s) [ 0; 63; 64; 199; 63 ];
  Alcotest.(check int) "card (add idempotent)" 4 (Bitset.card s);
  Alcotest.(check (list int)) "to_list ascending" [ 0; 63; 64; 199 ] (Bitset.to_list s);
  Alcotest.(check bool) "test_and_set seen" true (Bitset.test_and_set s 64);
  Alcotest.(check bool) "test_and_set fresh" false (Bitset.test_and_set s 65);
  Alcotest.(check bool) "test_and_set added" true (Bitset.mem s 65);
  (match Bitset.mem s 200 with
  | _ -> Alcotest.fail "expected out-of-range failure"
  | exception Invalid_argument _ -> ());
  match Bitset.add s (-1) with
  | _ -> Alcotest.fail "expected negative-index failure"
  | exception Invalid_argument _ -> ()

let test_bitset_rank () =
  let r = Crypto.Rng.create 33 in
  let len = 500 in
  let s = Bitset.create len in
  for _ = 1 to 120 do
    Bitset.add s (Crypto.Rng.int r len)
  done;
  let sorted = Bitset.to_list s in
  Alcotest.(check int) "card = |to_list|" (List.length sorted) (Bitset.card s);
  let via_fold = List.rev (Bitset.fold (fun acc i -> i :: acc) s []) in
  Alcotest.(check (list int)) "fold ascending" sorted via_fold;
  let via_iter = ref [] in
  Bitset.iter (fun i -> via_iter := i :: !via_iter) s;
  Alcotest.(check (list int)) "iter ascending" sorted (List.rev !via_iter);
  Alcotest.(check (list int)) "of_list round-trip" sorted (Bitset.to_list (Bitset.of_list len sorted));
  let pc = Bitset.prefix_counts s in
  for i = 0 to len - 1 do
    let naive = List.length (List.filter (fun x -> x < i) sorted) in
    let rk = Bitset.rank_with s pc i in
    if Bitset.mem s i then Alcotest.(check int) (Printf.sprintf "rank %d" i) naive rk
    else Alcotest.(check int) (Printf.sprintf "non-member %d" i) (-1) rk
  done

(* Word-boundary ranks, empty/full sets, grow, copy independence: the
   model checker forks per-process dedup sets with [copy], so aliasing
   here would corrupt exploration silently. *)
let test_bitset_boundaries () =
  let len = 126 in
  let s = Bitset.create len in
  let pc = Bitset.prefix_counts s in
  Alcotest.(check int) "empty: rank 0" (-1) (Bitset.rank_with s pc 0);
  Alcotest.(check (list int)) "empty: to_list" [] (Bitset.to_list s);
  Alcotest.(check int) "empty: card" 0 (Bitset.card s);
  for i = 0 to len - 1 do
    Bitset.add s i
  done;
  Alcotest.(check int) "full: card" len (Bitset.card s);
  let pc = Bitset.prefix_counts s in
  List.iter
    (fun i -> Alcotest.(check int) (Printf.sprintf "full: rank %d" i) i (Bitset.rank_with s pc i))
    [ 0; 1; 62; 63; 64; 125 ];
  let b = Bitset.create 200 in
  List.iter (Bitset.add b) [ 62; 63; 126 ];
  let pc = Bitset.prefix_counts b in
  Alcotest.(check int) "boundary: rank 62 (last of word 0)" 0 (Bitset.rank_with b pc 62);
  Alcotest.(check int) "boundary: rank 63 (first of word 1)" 1 (Bitset.rank_with b pc 63);
  Alcotest.(check int) "boundary: rank 126 (first of word 2)" 2 (Bitset.rank_with b pc 126);
  Alcotest.(check int) "boundary: non-member" (-1) (Bitset.rank_with b pc 64)

let test_bitset_grow_copy () =
  let s = Bitset.create 64 in
  List.iter (Bitset.add s) [ 0; 63 ];
  let g = Bitset.grow s 130 in
  Alcotest.(check int) "grow: new length" 130 (Bitset.length g);
  Alcotest.(check (list int)) "grow: members preserved" [ 0; 63 ] (Bitset.to_list g);
  Bitset.add g 129;
  Alcotest.(check int) "grow: original card unchanged" 2 (Bitset.card s);
  Alcotest.(check int) "grow: original length unchanged" 64 (Bitset.length s);
  (match Bitset.grow s 10 with
  | _ -> Alcotest.fail "expected shrink failure"
  | exception Invalid_argument _ -> ());
  let c = Bitset.copy s in
  Bitset.add c 5;
  Alcotest.(check bool) "copy: write misses original" false (Bitset.mem s 5);
  Bitset.add s 7;
  Alcotest.(check bool) "copy: original write misses copy" false (Bitset.mem c 7);
  Alcotest.(check (list int)) "copy: contents" [ 0; 5; 63 ] (Bitset.to_list c)

(* ---------------- Dsort: duplicate keys ---------------- *)

let test_dsort_duplicate_keys () =
  (* Times need not be distinct: the comparison order is (time, dst), so
     equal times resolve by destination, whatever the input order. *)
  let scratch = Dsort.scratch () in
  let times = [| 3.0; 1.0; 3.0; 1.0; 2.0; 3.0 |] in
  let dsts = [| 5; 4; 1; 0; 2; 3 |] in
  Dsort.sort scratch times dsts (Array.length times);
  Alcotest.(check (array (float 0.0))) "times ascending" [| 1.0; 1.0; 2.0; 3.0; 3.0; 3.0 |] times;
  Alcotest.(check (array int)) "ties resolve by dst" [| 0; 4; 2; 1; 3; 5 |] dsts;
  (* Fully-degenerate times short-circuit: the engine feeds [sort]
     destination-ascending input, so an all-equal time array is already
     in delivery order and must come back untouched. *)
  let times = Array.make 7 1.5 and dsts = [| 0; 1; 2; 3; 4; 5; 6 |] in
  Dsort.sort scratch times dsts 7;
  Alcotest.(check (array int)) "all-equal times: input order kept" [| 0; 1; 2; 3; 4; 5; 6 |] dsts;
  (* Duplicate-heavy differential against the comparison-based fallback:
     5 distinct times across 513 elements defeats the bucket scatter's
     spread assumption, which is exactly the case to pin. *)
  let r = Crypto.Rng.create 77 in
  let len = 513 in
  let t1 = Array.init len (fun _ -> float_of_int (Crypto.Rng.int r 5)) in
  let d1 = Array.init len Fun.id in
  for i = len - 1 downto 1 do
    let j = Crypto.Rng.int r (i + 1) in
    let tmp = d1.(i) in
    d1.(i) <- d1.(j);
    d1.(j) <- tmp
  done;
  let t2 = Array.copy t1 and d2 = Array.copy d1 in
  Dsort.sort scratch t1 d1 len;
  Dsort.quicksort t2 d2 0 (len - 1);
  Alcotest.(check (array int)) "sort = quicksort (dsts)" d2 d1;
  Alcotest.(check (array (float 0.0))) "sort = quicksort (times)" t2 t1

(* ---------------- Observer registration order ---------------- *)

let test_observer_registration_order () =
  (* engine.mli pins registration order for every observer kind, so the
     Ledger + Instrument attach order cannot change outcomes. *)
  let eng : int Engine.t = Engine.create ~n:2 ~seed:21 () in
  let trace = ref [] in
  let mark tag _ = trace := tag :: !trace in
  Engine.on_send_meta eng (fun ~src:_ ~id:_ ~dst:_ ~count:_ ~words:_ ~depth:_ ~correct:_ m ->
      mark "m1" m);
  Engine.on_send_meta eng (fun ~src:_ ~id:_ ~dst:_ ~count:_ ~words:_ ~depth:_ ~correct:_ m ->
      mark "m2" m);
  Engine.on_sent eng (fun ~src:_ m -> mark "s1" m);
  Engine.on_sent eng (fun ~src:_ m -> mark "s2" m);
  Engine.on_deliver eng (mark "d1");
  Engine.on_deliver eng (mark "d2");
  Engine.on_corrupt eng (mark "c1");
  Engine.on_corrupt eng (mark "c2");
  Engine.set_handler eng 0 (fun _ -> ());
  Engine.set_handler eng 1 (fun _ -> ());
  Engine.send eng ~src:0 ~dst:1 ~words:1 7;
  ignore (Engine.run eng ~until:(fun () -> false));
  Engine.corrupt_crash eng 1;
  Alcotest.(check (list string))
    "registration order" [ "m1"; "m2"; "s1"; "s2"; "d1"; "d2"; "c1"; "c2" ] (List.rev !trace)

(* What one meta call covers: envelopes id+k -> dst+k for k < count.  A
   broadcast is one call.  Under a send hook, destination 0 is its own
   call, made before the hook runs, so a send still comes before the
   corruption it triggers; the rest follow as one call in the class the
   hook left the sender in, or not at all after a crash. *)
let test_meta_call_coverage () =
  let log hook =
    let eng : int Engine.t = Engine.create ~n:4 ~seed:3 () in
    let calls = ref [] in
    Engine.on_send_meta eng (fun ~src ~id ~dst ~count ~words ~depth ~correct m ->
        calls := Printf.sprintf "meta %d %d %d %d %d %d %b %d" src id dst count words depth correct m
                 :: !calls);
    (match hook with
    | None -> ()
    | Some corrupt ->
        Engine.on_sent eng (fun ~src m ->
            calls := Printf.sprintf "sent %d %d" src m :: !calls;
            if src = 1 then corrupt eng src));
    for pid = 0 to 3 do
      Engine.set_handler eng pid (fun _ -> ())
    done;
    Engine.send eng ~src:2 ~dst:3 ~words:5 9;
    Engine.broadcast eng ~src:1 ~words:2 7;
    Engine.broadcast eng ~src:0 ~words:1 8;
    let m = Engine.metrics eng in
    List.rev
      (Printf.sprintf "metrics %d %d" m.Metrics.correct_msgs m.Metrics.byz_msgs :: !calls)
  in
  Alcotest.(check (list string)) "no hook: a unicast, then each broadcast as one call"
    [
      "meta 2 0 3 1 5 1 true 9";
      "meta 1 1 0 4 2 1 true 7";
      "meta 0 5 0 4 1 1 true 8";
      "metrics 9 0";
    ]
    (log None);
  Alcotest.(check (list string)) "a crash at the first envelope ends the broadcast there"
    [
      "meta 2 0 3 1 5 1 true 9";
      "sent 2 9";
      "meta 1 1 0 1 2 1 true 7";
      "sent 1 7";
      "meta 0 2 0 1 1 1 true 8";
      "sent 0 8";
      "meta 0 3 1 3 1 1 true 8";
      "metrics 6 0";
    ]
    (log (Some Engine.corrupt_crash));
  Alcotest.(check (list string)) "a Byzantine switch sends the rest as one call in its class"
    [
      "meta 2 0 3 1 5 1 true 9";
      "sent 2 9";
      "meta 1 1 0 1 2 1 true 7";
      "sent 1 7";
      "meta 1 2 1 3 2 1 false 7";
      "meta 0 5 0 1 1 1 true 8";
      "sent 0 8";
      "meta 0 6 1 3 1 1 true 8";
      "metrics 6 3";
    ]
    (log (Some (fun eng pid -> Engine.corrupt_byzantine eng pid (fun _ -> ()))))

(* ---------------- Broadcast records against n individual enqueues ---------------- *)

(* A run with handler-driven broadcasts and unicasts interleaved with the
   root broadcast, written delivery by delivery (ids, sources,
   destinations, payloads, depths, send steps and virtual times) and
   followed by the run result and the metrics, then digested.  With
   [~adaptive:f], [Faults.adaptive_crash_first_senders ~f] watches every
   send after the root broadcast, so the first f senders are crashed at
   their first envelope. *)
let delivery_digest ?adaptive seed =
  let n = 64 in
  let eng : int Engine.t = Engine.create ~n ~seed () in
  let log = Buffer.create 65536 in
  Engine.on_deliver eng (fun e ->
      Printf.bprintf log "%d %d %d %d %d %d %h\n" e.Envelope.id e.Envelope.src e.Envelope.dst
        e.Envelope.payload e.Envelope.depth e.Envelope.sent_step e.Envelope.sent_now);
  for pid = 0 to n - 1 do
    Engine.set_handler eng pid (fun e ->
        if e.Envelope.payload < 1 && pid mod 3 = 0 then
          Engine.broadcast eng ~src:pid ~words:2 (e.Envelope.payload + 1)
        else if e.Envelope.payload < 4 && pid mod 5 = 1 then
          Engine.send eng ~src:pid ~dst:((pid + 1) mod n) ~words:1 (e.Envelope.payload + 1))
  done;
  Engine.broadcast eng ~src:0 ~words:3 0;
  (match adaptive with Some f -> Faults.adaptive_crash_first_senders eng ~f | None -> ());
  let r = Engine.run eng ~until:(fun () -> false) in
  let m = Engine.metrics eng in
  Printf.bprintf log "%s %d %d %d %d %d %d\n"
    (match r with Engine.All_done -> "all-done" | Quiescent -> "quiescent" | Step_limit -> "step-limit")
    m.Metrics.correct_msgs m.Metrics.correct_words m.Metrics.byz_msgs m.Metrics.byz_words
    m.Metrics.delivered m.Metrics.dropped_at_crashed;
  Crypto.Hex.encode (Crypto.Sha256.digest (Buffer.contents log))

(* Digests frozen from the engine that enqueued every broadcast
   destination individually (eager expansion, retired since): a broadcast
   record must reproduce its ids, delivery order, virtual times and
   metrics exactly, and so must the send hook's cut records under
   adaptive crashes (those runs deliver 1,370-1,445 envelopes and drop
   90-103 at crashed processes). *)
let test_eager_lazy_equivalent () =
  List.iter
    (fun (seed, plain, adaptive) ->
      Alcotest.(check string) (Printf.sprintf "seed %d" seed) plain (delivery_digest seed);
      Alcotest.(check string)
        (Printf.sprintf "seed %d, adaptive crashes" seed)
        adaptive
        (delivery_digest ~adaptive:5 seed))
    [
      ( 1,
        "91714e32ccce5cd4f843ba66e84a565ea210e019fdbbcd0d26b0b077238dd23f",
        "b117bbcc39de6ae5645a43bd2a9db5cab7c0a549f18b266c0c85000333546915" );
      ( 7,
        "ec001953d20b8aff3c9ac9d36267e51ae946a37ef0b044e51528fd93e66562e5",
        "fcc34c184682f22e1e81736066596a8bd303cc32a093fc3726f5208f804cdb86" );
      ( 2026,
        "77846bc84a2282445688f51269c351ec882ffc019af6e43e66581dfdf6f75819",
        "335a64df51e20ec891a65ccf1592f3d6eaac409280bec6300902ff9e521bdd94" );
    ]

(* ---------------- Dsort differential ---------------- *)

let reference_sort times dsts len =
  let pairs = Array.init len (fun i -> (times.(i), dsts.(i))) in
  Array.sort compare pairs;
  Array.iteri
    (fun i (t, d) ->
      times.(i) <- t;
      dsts.(i) <- d)
    pairs

let test_dsort_differential () =
  let scratch = Dsort.scratch () in
  let check_case name make len =
    let times = Array.init len make in
    let dsts = Array.init len Fun.id in
    let rt = Array.copy times and rd = Array.copy dsts in
    reference_sort rt rd len;
    let st = Array.copy times and sd = Array.copy dsts in
    Dsort.sort scratch st sd len;
    Alcotest.(check bool) (name ^ ": sort times") true (st = rt);
    Alcotest.(check bool) (name ^ ": sort dsts") true (sd = rd);
    let tmin = Array.fold_left min infinity times in
    let tmax = Array.fold_left max neg_infinity times in
    let ot = Array.make len 0.0 and od = Array.make len 0 in
    Dsort.sort_into scratch ~tmin ~tmax ~dst0:0 (Array.copy times) len ot od;
    Alcotest.(check bool) (name ^ ": sort_into times") true (ot = rt);
    Alcotest.(check bool) (name ^ ": sort_into dsts") true (od = rd);
    let qt = Array.copy times and qd = Array.copy dsts in
    Dsort.quicksort qt qd 0 (len - 1);
    Alcotest.(check bool) (name ^ ": quicksort times") true (qt = rt);
    Alcotest.(check bool) (name ^ ": quicksort dsts") true (qd = rd)
  in
  let r = Crypto.Rng.create 55 in
  check_case "exponential" (fun _ -> -.log (max 1e-12 (Crypto.Rng.float r 1.0))) 1000;
  check_case "uniform" (fun _ -> Crypto.Rng.float r 100.0) 997;
  check_case "all-equal" (fun _ -> 3.5) 257;
  (* One huge outlier crams everything else into bucket zero: the
     insertion budget blows and the quicksort fallback must engage. *)
  check_case "heavy-tail" (fun i -> if i = 0 then 1e12 else Crypto.Rng.float r 1e-9) 512;
  (* Infinite draws defeat the bucket scale arithmetic entirely. *)
  check_case "with-inf" (fun i -> if i mod 97 = 0 then infinity else Crypto.Rng.float r 1.0) 300;
  check_case "descending" (fun i -> float_of_int (1000 - i)) 1000;
  check_case "pair" (fun _ -> Crypto.Rng.float r 1.0) 2;
  check_case "single" (fun _ -> 1.0) 1

(* The per-broadcast delivery sort allocates nothing: its parameters are
   typed [float array]/[int array], so no comparison boxes a float.  With
   the parameters unannotated, and so generalised to ['a array], 100
   sorts of 256 exponential draws allocated 219,400 words. *)
let test_dsort_allocation_free () =
  let len = 256 in
  let r = Crypto.Rng.create 3 in
  let draws = Array.init len (fun _ -> -.log (max 1e-12 (Crypto.Rng.float r 1.0))) in
  let tmin = Array.fold_left min infinity draws in
  let tmax = Array.fold_left max neg_infinity draws in
  let scratch = Dsort.scratch () in
  let draw = Dsort.draw_buffer scratch len in
  let times = Array.make len 0.0 and dsts = Array.make len 0 in
  let sorts k =
    for _ = 1 to k do
      Array.blit draws 0 draw 0 len;
      Dsort.sort_into scratch ~tmin ~tmax ~dst0:0 draw len times dsts
    done
  in
  sorts 1;
  let words k =
    let w0 = Gc.minor_words () in
    sorts k;
    Gc.minor_words () -. w0
  in
  (* The difference cancels the cost of reading the counter. *)
  Alcotest.(check (float 0.0)) "words for 100 sorts beyond the first" 0.0 (words 101 -. words 1)

(* ---------------- Schedulers and faults ---------------- *)

let run_with_scheduler scheduler =
  let eng : int Engine.t = Engine.create ~scheduler ~n:4 ~seed:20 () in
  let order = ref [] in
  for pid = 0 to 3 do
    Engine.set_handler eng pid (fun e -> order := (e.Envelope.src, pid, e.Envelope.payload) :: !order)
  done;
  for i = 0 to 19 do
    Engine.send eng ~src:(i mod 4) ~dst:((i + 1) mod 4) ~words:1 i
  done;
  ignore (Engine.run eng ~until:(fun () -> false));
  List.rev !order

let test_fifo_in_order () =
  let order = run_with_scheduler (Scheduler.fifo ()) in
  let payloads = List.map (fun (_, _, p) -> p) order in
  Alcotest.(check (list int)) "fifo preserves global send order" (List.init 20 Fun.id) payloads

let test_random_delivers_all () =
  let order = run_with_scheduler (Scheduler.random ()) in
  Alcotest.(check int) "all delivered" 20 (List.length order)

let test_targeted_slows_victim () =
  (* Victim 0's messages should tend to arrive after others. *)
  let sched = Scheduler.targeted ~victims:(fun pid -> pid = 0) ~factor:1000.0 () in
  let order = run_with_scheduler sched in
  let last5 = List.filteri (fun i _ -> i >= 15) order in
  let from_victim = List.filter (fun (src, _, _) -> src = 0) last5 in
  Alcotest.(check bool) "victim messages pushed late" true (List.length from_victim = 5)

let test_split_delivers_all () =
  let sched = Scheduler.split ~group:(fun pid -> pid < 2) ~cross_delay:100.0 () in
  let order = run_with_scheduler sched in
  Alcotest.(check int) "all delivered despite split" 20 (List.length order)

let test_eventual_sync_phases () =
  (* Before GST latencies are chaotic, after GST bounded: the spread of
     delivery times of messages sent late must be far smaller. *)
  let sched = Scheduler.eventual_sync ~gst:50.0 ~bound:1.0 ~chaos_mean:20.0 () in
  let eng : int Engine.t = Engine.create ~scheduler:sched ~n:2 ~seed:33 () in
  let latencies_before = ref [] and latencies_after = ref [] in
  Engine.set_handler eng 0 (fun _ -> ());
  Engine.set_handler eng 1 (fun _ -> ());
  (* sample latencies directly through the scheduler function *)
  let rng = Crypto.Rng.create 5 in
  for _ = 1 to 200 do
    latencies_before := sched.Scheduler.latency ~rng ~now:0.0 ~step:0 ~src:0 ~dst:1 ~payload:0 :: !latencies_before;
    latencies_after := sched.Scheduler.latency ~rng ~now:100.0 ~step:0 ~src:0 ~dst:1 ~payload:0 :: !latencies_after
  done;
  let mean xs = List.fold_left ( +. ) 0.0 xs /. 200.0 in
  Alcotest.(check bool) "chaotic before GST" true (mean !latencies_before > 5.0);
  Alcotest.(check bool) "bounded after GST" true
    (List.for_all (fun l -> l < 1.0) !latencies_after)

let test_eventual_sync_liveness () =
  let sched = Scheduler.eventual_sync () in
  let eng : int Engine.t = Engine.create ~scheduler:sched ~n:4 ~seed:34 () in
  let got = ref 0 in
  for pid = 0 to 3 do
    Engine.set_handler eng pid (fun _ -> incr got)
  done;
  for i = 0 to 49 do
    Engine.send eng ~src:(i mod 4) ~dst:((i + 1) mod 4) ~words:1 i
  done;
  ignore (Engine.run eng ~until:(fun () -> false));
  Alcotest.(check int) "all delivered across GST" 50 !got

let test_faults_choose_random () =
  let rng = Crypto.Rng.create 9 in
  let victims = Faults.choose_random rng ~n:10 ~f:3 in
  Alcotest.(check int) "3 victims" 3 (List.length victims);
  Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare victims))

let test_adaptive_crash_first_senders () =
  let eng : int Engine.t = Engine.create ~n:4 ~seed:21 () in
  for pid = 0 to 3 do
    Engine.set_handler eng pid (fun _ -> ())
  done;
  Faults.adaptive_crash_first_senders eng ~f:2;
  Engine.send eng ~src:0 ~dst:1 ~words:1 0;
  Engine.send eng ~src:1 ~dst:2 ~words:1 0;
  Engine.send eng ~src:2 ~dst:3 ~words:1 0;
  Alcotest.(check bool) "first sender crashed" false (Engine.is_correct eng 0);
  Alcotest.(check bool) "second sender crashed" false (Engine.is_correct eng 1);
  Alcotest.(check bool) "budget spent, third alive" true (Engine.is_correct eng 2)

let qcheck_engine_deterministic =
  QCheck.Test.make ~name:"qcheck: engine deterministic per seed" ~count:30 QCheck.small_int
    (fun seed ->
      let run () =
        let eng : int Engine.t = Engine.create ~n:5 ~seed () in
        let log = ref [] in
        for pid = 0 to 4 do
          Engine.set_handler eng pid (fun e -> log := (pid, e.Envelope.id) :: !log)
        done;
        for i = 0 to 30 do
          Engine.send eng ~src:(i mod 5) ~dst:((i * 7) mod 5) ~words:1 i
        done;
        ignore (Engine.run eng ~until:(fun () -> false));
        !log
      in
      run () = run ())

let suite =
  [
    Alcotest.test_case "heap order" `Quick test_heap_order;
    Alcotest.test_case "heap tiebreak" `Quick test_heap_tiebreak;
    Alcotest.test_case "heap interleaved" `Quick test_heap_interleaved;
    Alcotest.test_case "heap size/peek" `Quick test_heap_size;
    Alcotest.test_case "exactly-once delivery" `Quick test_exactly_once_delivery;
    Alcotest.test_case "reliable links" `Quick test_reliable_all_delivered;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "crash drops input" `Quick test_crash_drops;
    Alcotest.test_case "crashed can't send" `Quick test_crashed_cannot_send;
    Alcotest.test_case "no after-the-fact removal" `Quick test_no_after_fact_removal;
    Alcotest.test_case "byzantine accounting" `Quick test_byzantine_words_separate;
    Alcotest.test_case "byzantine handler" `Quick test_byzantine_handler_runs;
    Alcotest.test_case "causal depth chain" `Quick test_causal_depth;
    Alcotest.test_case "causal depth parallel" `Quick test_concurrent_depth;
    Alcotest.test_case "run until predicate" `Quick test_run_until_predicate;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "observers" `Quick test_observers;
    Alcotest.test_case "correct pids" `Quick test_correct_pids;
    Alcotest.test_case "heap capacity growth" `Quick test_heap_capacity_growth;
    Alcotest.test_case "heap root ops" `Quick test_heap_root_ops;
    Alcotest.test_case "heap empty root raises" `Quick test_heap_empty_root_raises;
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset rank" `Quick test_bitset_rank;
    Alcotest.test_case "bitset word boundaries" `Quick test_bitset_boundaries;
    Alcotest.test_case "bitset grow/copy independence" `Quick test_bitset_grow_copy;
    Alcotest.test_case "dsort duplicate keys" `Quick test_dsort_duplicate_keys;
    Alcotest.test_case "meta call coverage" `Quick test_meta_call_coverage;
    Alcotest.test_case "observer registration order" `Quick test_observer_registration_order;
    Alcotest.test_case "eager/lazy equivalence" `Quick test_eager_lazy_equivalent;
    Alcotest.test_case "dsort differential" `Quick test_dsort_differential;
    Alcotest.test_case "dsort allocation free" `Quick test_dsort_allocation_free;
    Alcotest.test_case "fifo order" `Quick test_fifo_in_order;
    Alcotest.test_case "random delivers all" `Quick test_random_delivers_all;
    Alcotest.test_case "targeted slows victim" `Quick test_targeted_slows_victim;
    Alcotest.test_case "split delivers all" `Quick test_split_delivers_all;
    Alcotest.test_case "eventual sync phases" `Quick test_eventual_sync_phases;
    Alcotest.test_case "eventual sync liveness" `Quick test_eventual_sync_liveness;
    Alcotest.test_case "choose_random" `Quick test_faults_choose_random;
    Alcotest.test_case "adaptive crash first senders" `Quick test_adaptive_crash_first_senders;
    QCheck_alcotest.to_alcotest qcheck_engine_deterministic;
  ]
