(* coincheck head 1: the explicit-state model checker (lib/mc).

   Exhaustive clean verdicts run the REAL step functions (Baselines.Benor,
   Baselines.Bracha, Core.Whp_coin, and Core.Approver capped) through every
   delayed-adaptive delivery schedule of a small configuration; the
   mutant tests prove the same search catches a
   dropped wait guard and a lowered decide quorum, and that each
   counterexample replays through Sim.Engine and survives the
   coincidence.check/1 JSON round-trip. *)

open Mc

let cfg ?(n = 4) ?(f = 1) ?byz ?(active = false) ?(inject = 0) ?(coin = false) ?(rounds = 0)
    ?(cap = 2_000_000) ?(fifo = true) () =
  {
    Search.n;
    f;
    byz;
    active_byz = active;
    max_inject = inject;
    coin;
    max_rounds = rounds;
    max_states = cap;
    fifo;
  }

module MB = Search.Make (Protos.Benor_p)
module MBr = Search.Make (Protos.Bracha_p)
module MA = Search.Make (Protos.Approver_p)
module MW = Search.Make (Protos.Coin_p)
module MNW = Search.Make (Protos.Benor_nowait)
module MBL = Search.Make (Protos.Bracha_low)

let exhaustive_clean name s =
  Alcotest.(check bool) (name ^ ": not truncated") false s.Search.s_truncated;
  (match s.Search.s_violation with
  | None -> ()
  | Some v -> Alcotest.fail (Printf.sprintf "%s: unexpected %s: %s" name v.v_invariant v.v_detail));
  Alcotest.(check bool) (name ^ ": explored something") true (s.s_states > 1)

(* Ben-Or, n = 3, f = 0: every input vector x every schedule x both coin
   outcomes.  The strongest fully-exhaustive verdict the checker gives. *)
let test_benor_exhaustive_all () =
  List.iter
    (fun coin ->
      let s = MB.check_all (cfg ~n:3 ~f:0 ~coin ()) in
      exhaustive_clean (Printf.sprintf "benor n=3 coin=%b" coin) s;
      Alcotest.(check bool) "state space is nontrivial" true (s.Search.s_states > 10_000))
    [ false; true ]

(* Ben-Or, n = 4, t = 1 with the fault budget spent: a silent (crashed)
   Byzantine process, and an active one injecting forged reports and
   proposals from the bounded alphabet. *)
let test_benor_byz_exhaustive () =
  let s = MB.check_inputs (cfg ~byz:3 ~coin:false ()) [| 0; 0; 1; 0 |] in
  exhaustive_clean "benor n=4 byz silent" s;
  let s = MB.check_inputs (cfg ~byz:3 ~active:true ~inject:1 ~coin:true ()) [| 0; 0; 1; 0 |] in
  exhaustive_clean "benor n=4 byz active" s

(* Bracha over the real RBC substrate, n = 2, f = 0: exhaustive.  (At
   n >= 3 the echo/ready storm of O(n^3) messages per round makes full
   enumeration infeasible — larger configurations run capped; see
   DESIGN.md "Model checking".) *)
let test_bracha_exhaustive_n2 () =
  List.iter
    (fun coin ->
      let s = MBr.check_inputs (cfg ~n:2 ~f:0 ~coin ()) [| 0; 1 |] in
      exhaustive_clean (Printf.sprintf "bracha n=2 coin=%b" coin) s;
      Alcotest.(check bool) "state space is nontrivial" true (s.Search.s_states > 5_000))
    [ false; true ]

(* Bracha at n = 4, t = 1, bounded: no violation within the cap. *)
let test_bracha_bounded_clean () =
  let s = MBr.check_inputs (cfg ~byz:3 ~coin:false ~cap:30_000 ()) [| 0; 0; 1; 0 |] in
  Alcotest.(check bool) "truncated at cap" true s.Search.s_truncated;
  Alcotest.(check bool) "no violation" true (s.s_violation = None)

(* The committee protocols over their real step functions.  Their
   phases resolve on first use, so the search forks (clone) and hashes
   (encode) states whose phases are partly unresolved.  The counts are
   those of a search with every phase resolved at creation: an
   unresolved phase must encode exactly as an empty resolved one, or
   the visited set would split states that are the same. *)
let check_counts name s ~states ~transitions ~depth =
  Alcotest.(check int) (name ^ ": states") states s.Search.s_states;
  Alcotest.(check int) (name ^ ": transitions") transitions s.s_transitions;
  Alcotest.(check int) (name ^ ": max depth") depth s.s_max_depth

(* The WHP coin at n = 3: every input vector, both coin outcomes. *)
let test_whp_coin_exhaustive_n3 () =
  let s =
    List.fold_left
      (fun acc coin -> Search.merge acc (MW.check_all (cfg ~n:3 ~f:0 ~coin ())))
      Search.empty_summary [ false; true ]
  in
  exhaustive_clean "whp-coin n=3" s;
  check_counts "whp-coin n=3" s ~states:34_032 ~transitions:104_752 ~depth:18

(* Algorithm 3 at n = 3 on inputs 001: capped, since the full space is
   millions of states. *)
let test_approver_bounded_n3 () =
  let s = MA.check_inputs (cfg ~n:3 ~f:0 ~coin:false ~cap:20_000 ()) [| 0; 0; 1 |] in
  Alcotest.(check bool) "truncated at cap" true s.Search.s_truncated;
  Alcotest.(check bool) "no violation" true (s.s_violation = None);
  check_counts "approver n=3" s ~states:20_001 ~transitions:35_503 ~depth:36

(* Mutant 1: Ben-Or's n-f report wait dropped.  Unanimous inputs then
   livelock (every round degenerates to "?" proposals), which the
   terminal-decision invariant catches at quiescence — and the trace
   replays through the simulator. *)
let test_nowait_caught_and_replays () =
  let c = cfg ~coin:false () in
  let s = MNW.check_inputs c [| 0; 0; 0; 0 |] in
  match s.Search.s_violation with
  | None -> Alcotest.fail "benor-no-wait: expected a terminal-decision violation"
  | Some v ->
      Alcotest.(check string) "invariant" "terminal-decision" v.Search.v_invariant;
      Alcotest.(check bool) "trace nonempty" true (v.v_trace <> []);
      let spec = Replay.spec_of_violation ~protocol:"benor-no-wait" c v in
      let module D = Replay.Drive (Protos.Benor_nowait) in
      let o = D.run spec in
      Alcotest.(check bool) "replay reproduces the violation" true o.Replay.o_reproduced;
      Array.iter
        (fun d -> Alcotest.(check (option int)) "still undecided" None d)
        o.o_decisions

(* Mutant 2: Bracha's decide threshold 2f+1 lowered to 2f.  At n = 4,
   f = 1 with mixed inputs two overlapping 3-subsets of a 2-2 proposal
   split decide opposite values — an agreement violation with no
   Byzantine process at all. *)
let test_bracha_low_caught_and_replays () =
  let c = cfg ~coin:false () in
  let s = MBL.check_inputs c [| 0; 0; 1; 1 |] in
  match s.Search.s_violation with
  | None -> Alcotest.fail "bracha-decide-low: expected an agreement violation"
  | Some v ->
      Alcotest.(check string) "invariant" "agreement" v.Search.v_invariant;
      let spec = Replay.spec_of_violation ~protocol:"bracha-decide-low" c v in
      let module D = Replay.Drive (Protos.Bracha_low) in
      let o = D.run spec in
      Alcotest.(check bool) "replay reproduces the violation" true o.Replay.o_reproduced;
      let decided = Array.to_list o.o_decisions |> List.filter_map Fun.id in
      Alcotest.(check bool) "both values decided" true
        (List.mem 0 decided && List.mem 1 decided)

(* coincidence.check/1: a counterexample survives to_json |> of_json with
   every field intact, and of_json rejects structurally broken documents
   instead of guessing. *)
let test_json_roundtrip_and_rejects () =
  let c = cfg ~coin:false () in
  let s = MBL.check_inputs c [| 0; 0; 1; 1 |] in
  let v = Option.get s.Search.s_violation in
  let spec = Replay.spec_of_violation ~protocol:"bracha-decide-low" c v in
  (match Replay.of_json (Replay.to_json spec) with
  | Error e -> Alcotest.fail ("round-trip rejected: " ^ e)
  | Ok spec' ->
      Alcotest.(check string) "protocol" spec.Replay.sp_protocol spec'.Replay.sp_protocol;
      Alcotest.(check int) "n" spec.sp_n spec'.sp_n;
      Alcotest.(check int) "f" spec.sp_f spec'.sp_f;
      Alcotest.(check bool) "coin" spec.sp_coin spec'.sp_coin;
      Alcotest.(check string) "invariant" spec.sp_invariant spec'.sp_invariant;
      Alcotest.(check (array int)) "inputs" spec.sp_inputs spec'.sp_inputs;
      Alcotest.(check int) "trace length" (List.length spec.sp_trace)
        (List.length spec'.sp_trace);
      Alcotest.(check bool) "trace events equal" true
        (List.for_all2 Search.event_equal spec.sp_trace spec'.sp_trace));
  let reject label doc =
    match Replay.of_json doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": expected rejection")
  in
  reject "not an object" (Obs.Json.Str "nope");
  reject "wrong schema"
    (Obs.Json.Obj [ ("schema", Obs.Json.Str "coincidence.lint/3") ]);
  (match Replay.to_json spec with
  | Obs.Json.Obj kvs ->
      reject "missing inputs" (Obs.Json.Obj (List.remove_assoc "inputs" kvs));
      reject "mangled trace"
        (Obs.Json.Obj
           (("trace", Obs.Json.List [ Obs.Json.Str "deliver" ])
           :: List.remove_assoc "trace" kvs))
  | _ -> Alcotest.fail "to_json: expected an object")

let suite =
  [
    Alcotest.test_case "benor n=3 exhaustive (all inputs, both coins)" `Quick
      test_benor_exhaustive_all;
    Alcotest.test_case "benor n=4 byz silent+active exhaustive" `Quick test_benor_byz_exhaustive;
    Alcotest.test_case "bracha n=2 exhaustive" `Quick test_bracha_exhaustive_n2;
    Alcotest.test_case "bracha n=4 bounded clean" `Quick test_bracha_bounded_clean;
    Alcotest.test_case "whp-coin n=3 exhaustive" `Quick test_whp_coin_exhaustive_n3;
    Alcotest.test_case "approver n=3 bounded" `Quick test_approver_bounded_n3;
    Alcotest.test_case "mutant: no-wait caught + replays" `Quick test_nowait_caught_and_replays;
    Alcotest.test_case "mutant: decide-low caught + replays" `Quick
      test_bracha_low_caught_and_replays;
    Alcotest.test_case "check/1 JSON round-trip + rejects" `Quick test_json_roundtrip_and_rejects;
  ]
