(* Algorithm 2 (WHP coin): committee behaviour, validation of the
   committee certificates, liveness, word complexity scaling. *)

open Core

let n = 64
let params = lazy (Tutil.robust_params n)
let keyring = lazy (Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"whp-coin-test" ())

let run ?scheduler ?pre_corrupt ~round ~seed () =
  Runner.run_whp_coin ?scheduler ?pre_corrupt ~keyring:(Lazy.force keyring)
    ~params:(Lazy.force params) ~round ~seed ()

let test_all_return () =
  let o = run ~round:0 ~seed:1 () in
  Alcotest.(check int) "everyone returns" n (List.length o.Runner.outputs);
  Alcotest.(check bool) "done" true (o.Runner.coin_result = Sim.Engine.All_done)

let test_unanimity_common () =
  let unanimous = ref 0 in
  for seed = 1 to 20 do
    if (run ~round:0 ~seed ()).Runner.unanimous <> None then incr unanimous
  done;
  Alcotest.(check bool) (Printf.sprintf "unanimous %d/20" !unanimous) true (!unanimous >= 12)

let test_only_committee_members_send () =
  (* Word count must be O(n * committee), far below Algorithm 1's 8 n^2. *)
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let o = run ~round:0 ~seed:2 () in
  let instance = "whpcoin-2" in
  let first =
    Sample.committee kr ~s:(Whp_coin.first_committee_string ~instance ~round:0) ~lambda:p.Params.lambda
  in
  let second =
    Sample.committee kr ~s:(Whp_coin.second_committee_string ~instance ~round:0)
      ~lambda:p.Params.lambda
  in
  (* senders = FIRST members (6 words to n peers) + SECOND members that
     reached the W threshold (8 words to n peers). *)
  let upper = ((List.length first * 6) + (List.length second * 8)) * n in
  Alcotest.(check bool)
    (Printf.sprintf "words %d <= committee upper bound %d" o.Runner.coin_words upper)
    true
    (o.Runner.coin_words <= upper);
  Alcotest.(check bool) "non-trivial" true (o.Runner.coin_words > 0)

let test_crash_tolerance () =
  (* Crash f random processes: W correct committee members remain whp. *)
  let p = Lazy.force params in
  let rng = Crypto.Rng.create 5 in
  let crashed = Crypto.Rng.sample_without_replacement rng p.Params.f n in
  let o = run ~pre_corrupt:crashed ~round:0 ~seed:3 () in
  Alcotest.(check int) "survivors return" (n - p.Params.f) (List.length o.Runner.outputs)

let test_deterministic () =
  let a = run ~round:1 ~seed:7 () and b = run ~round:1 ~seed:7 () in
  Alcotest.(check bool) "deterministic" true (a.Runner.outputs = b.Runner.outputs)

let test_rounds_vary () =
  let bits =
    List.init 12 (fun r ->
        match (run ~round:r ~seed:50 ()).Runner.unanimous with Some b -> b | None -> -1)
  in
  Alcotest.(check bool) "both coin values occur" true (List.mem 0 bits && List.mem 1 bits)

(* --------- direct state-machine validation tests --------- *)

let mk_instance tag = Printf.sprintf "direct-%s" tag

let find_member kr ~s ~lambda =
  let rec go pid =
    if pid >= n then None
    else begin
      let c = Sample.sample kr ~pid ~s ~lambda in
      if c.Sample.member then Some (pid, c) else go (pid + 1)
    end
  in
  go 0

let test_non_member_first_rejected () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let inst = mk_instance "nm" in
  let c = Whp_coin.create ~keyring:kr ~params:p ~pid:0 ~instance:inst ~round:0 () in
  ignore (Whp_coin.start c);
  let s_first = Whp_coin.first_committee_string ~instance:inst ~round:0 in
  (* find a NON-member and have it send a FIRST with a forged cert *)
  let rec find_nonmember pid =
    let cert = Sample.sample kr ~pid ~s:s_first ~lambda:p.Params.lambda in
    if cert.Sample.member then find_nonmember (pid + 1) else (pid, cert)
  in
  let pid, cert = find_nonmember 1 in
  let out = Vrf.Keyring.prove kr pid (Printf.sprintf "%s/whpcoin/0/value" inst) in
  let forged = { cert with Sample.member = true } in
  let acts =
    Whp_coin.handle c ~src:pid
      (Whp_coin.First { value = { origin = pid; out; origin_cert = forged } })
  in
  Alcotest.(check bool) "non-member FIRST rejected" true (acts = []);
  Alcotest.(check bool) "min unchanged by forgery" true
    (match Whp_coin.current_min c with
    | None -> true
    | Some v -> v.Whp_coin.origin <> pid)

let test_member_first_accepted () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let inst = mk_instance "m" in
  let c = Whp_coin.create ~keyring:kr ~params:p ~pid:0 ~instance:inst ~round:0 () in
  ignore (Whp_coin.start c);
  let s_first = Whp_coin.first_committee_string ~instance:inst ~round:0 in
  match find_member kr ~s:s_first ~lambda:p.Params.lambda with
  | None -> Alcotest.fail "no member found"
  | Some (pid, cert) ->
      let out = Vrf.Keyring.prove kr pid (Printf.sprintf "%s/whpcoin/0/value" inst) in
      ignore
        (Whp_coin.handle c ~src:pid
           (Whp_coin.First { value = { origin = pid; out; origin_cert = cert } }));
      Alcotest.(check bool) "value adopted or own kept" true (Whp_coin.current_min c <> None)

let test_second_requires_sender_cert () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let inst = mk_instance "sc" in
  let c = Whp_coin.create ~keyring:kr ~params:p ~pid:0 ~instance:inst ~round:0 () in
  ignore (Whp_coin.start c);
  let s_first = Whp_coin.first_committee_string ~instance:inst ~round:0 in
  match find_member kr ~s:s_first ~lambda:p.Params.lambda with
  | None -> Alcotest.fail "no member"
  | Some (origin, origin_cert) ->
      let out = Vrf.Keyring.prove kr origin (Printf.sprintf "%s/whpcoin/0/value" inst) in
      let value = { Whp_coin.origin; out; origin_cert } in
      (* sender 5 uses its FIRST cert as a SECOND cert: wrong committee. *)
      let wrong_cert = Sample.sample kr ~pid:5 ~s:s_first ~lambda:p.Params.lambda in
      let acts = Whp_coin.handle c ~src:5 (Whp_coin.Second { value; cert = wrong_cert }) in
      Alcotest.(check bool) "wrong-committee SECOND rejected" true (acts = [])

let test_second_origin_out_of_range () =
  (* A SECOND from a valid committee member whose value names an origin
     outside [0, n) must be rejected, not reach the keyring with a pid it
     has no key for. *)
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let lambda = p.Params.lambda in
  let inst = mk_instance "oor" in
  let s_first = Whp_coin.first_committee_string ~instance:inst ~round:0 in
  let s_second = Whp_coin.second_committee_string ~instance:inst ~round:0 in
  match (find_member kr ~s:s_first ~lambda, find_member kr ~s:s_second ~lambda) with
  | None, _ | _, None -> Alcotest.fail "no member"
  | Some (origin, origin_cert), Some (sender, cert) ->
      let out = Vrf.Keyring.prove kr origin (Printf.sprintf "%s/whpcoin/0/value" inst) in
      List.iter
        (fun bad ->
          let c = Whp_coin.create ~keyring:kr ~params:p ~pid:0 ~instance:inst ~round:0 () in
          let value = { Whp_coin.origin = bad; out; origin_cert } in
          let acts = Whp_coin.handle c ~src:sender (Whp_coin.Second { value; cert }) in
          Alcotest.(check bool) (Printf.sprintf "origin %d rejected" bad) true (acts = []);
          Alcotest.(check bool) "nothing adopted" true (Whp_coin.current_min c = None))
        [ n; -1; max_int ]

(* Receiver i gets delivery i through one shared cache; its twin gets the
   same message through a cache of its own, which is the uncached
   verdict.  The two must end in the same state.  Returns the twins'
   encodings. *)
let against_uncached ~name ~instance deliveries =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let dir = Sample.Directory.create kr ~lambda:p.Params.lambda in
  let cache = Whp_coin.cache () in
  let encode c =
    let b = Buffer.create 32 in
    Whp_coin.encode b c;
    Buffer.contents b
  in
  List.mapi
    (fun i (src, msg) ->
      let receiver cache =
        Whp_coin.create ~dir ~cache ~keyring:kr ~params:p ~pid:i ~instance ~round:0 ()
      in
      let shared = receiver cache and alone = receiver (Whp_coin.cache ()) in
      ignore (Whp_coin.handle shared ~src msg : Whp_coin.action list);
      ignore (Whp_coin.handle alone ~src msg : Whp_coin.action list);
      Alcotest.(check string) (Printf.sprintf "%s, receiver %d" name i) (encode alone) (encode shared);
      encode alone)
    deliveries

let test_memo_per_destination () =
  (* One Byzantine sender gives one receiver a valid payload and another a
     forged one, in both orders, and then the first payload again. *)
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let lambda = p.Params.lambda in
  let instance = mk_instance "memo" in
  let s_first = Whp_coin.first_committee_string ~instance ~round:0 in
  let s_second = Whp_coin.second_committee_string ~instance ~round:0 in
  let member s = match find_member kr ~s ~lambda with Some m -> m | None -> Alcotest.fail "no member" in
  let origin, origin_cert = member s_first in
  let out = Vrf.Keyring.prove kr origin (Printf.sprintf "%s/whpcoin/0/value" instance) in
  let value = { Whp_coin.origin; out; origin_cert } in
  let bad_out = { value with Whp_coin.out = Vrf.Keyring.prove kr origin "other" } in
  let bad_cert = { value with Whp_coin.origin_cert = Tutil.forge_cert origin_cert } in
  let first v = (origin, Whp_coin.First { value = v }) in
  let sender, cert = member s_second in
  let second ?(cert = cert) v = (sender, Whp_coin.Second { value = v; cert }) in
  let both_orders name valid forged =
    let a = against_uncached ~name:(name ^ ", valid first") ~instance [ valid; forged; valid ] in
    ignore (against_uncached ~name:(name ^ ", forged first") ~instance [ forged; valid; forged ]
             : string list);
    Alcotest.(check bool) (name ^ ": only the valid payload is accepted") true
      (List.nth a 0 <> List.nth a 1)
  in
  both_orders "FIRST output" (first value) (first bad_out);
  both_orders "FIRST certificate" (first value) (first bad_cert);
  both_orders "SECOND value" (second value) (second bad_out);
  both_orders "SECOND certificate" (second value) (second ~cert:(Tutil.forge_cert cert) value);
  (* A FIRST and a SECOND carrying the same origin share its value slot. *)
  let mixed name deliveries =
    ignore (against_uncached ~name:(name ^ ", reversed") ~instance (List.rev deliveries)
             : string list);
    List.nth (against_uncached ~name ~instance deliveries) 1
  in
  let rejected = mixed "valid FIRST, SECOND with its forged value" [ first value; second bad_out ] in
  let accepted = mixed "forged FIRST, SECOND with its valid value" [ first bad_out; second value ] in
  Alcotest.(check bool) "only the SECOND with the valid value is accepted" true (rejected <> accepted)

(* Creating or starting an instance evaluates no committee; a delivery
   resolves the phase it names, which must not change the instance's
   encoding. *)
let test_phases_resolved_on_first_use () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let instance = mk_instance "lazy" in
  let encode c =
    let b = Buffer.create 32 in
    Whp_coin.encode b c;
    Buffer.contents b
  in
  let fresh () = Whp_coin.create ~keyring:kr ~params:p ~pid:0 ~instance ~round:0 () in
  let a = fresh () and b = fresh () in
  let evaluations = Vrf.Keyring.evaluations kr in
  ignore (Whp_coin.start a : Whp_coin.action list);
  ignore (Whp_coin.start b : Whp_coin.action list);
  (* start samples pid 0 for FIRST and SECOND, and proves its coin value
     when it sits on FIRST *)
  Alcotest.(check bool) "start evaluates no committee" true
    (Vrf.Keyring.evaluations kr - evaluations <= 3);
  let after_start = Vrf.Keyring.evaluations kr in
  (* From a pid that names no process: rejected, after the phase
     resolved. *)
  let cert = { Sample.member = true; vrf = { Vrf.beta = ""; proof = "" } } in
  let value = { Whp_coin.origin = n; out = cert.Sample.vrf; origin_cert = cert } in
  ignore (Whp_coin.handle b ~src:n (Whp_coin.First { value }) : Whp_coin.action list);
  ignore (Whp_coin.handle b ~src:n (Whp_coin.Second { value; cert }) : Whp_coin.action list);
  Alcotest.(check int) "FIRST and SECOND committees resolved" (after_start + (2 * n) - 2)
    (Vrf.Keyring.evaluations kr);
  Alcotest.(check string) "unresolved = empty resolved" (encode a) (encode b)

let test_words_scale_subquadratically () =
  (* At a realistic lambda << n the committee coin is cheaper than the
     all-to-all coin, despite its larger per-message certificates
     (6-8 words vs 4).  The robust test lambda (~15n/16) would hide this,
     so use a small lambda here; the seed is fixed and known to complete
     (committee liveness at small lambda is whp, not certain — see
     EXPERIMENTS.md). *)
  let kr = Lazy.force keyring in
  let small = Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.037 ~lambda:26 ~n () in
  let full = Runner.run_shared_coin ~keyring:kr ~n ~f:small.Params.f ~round:0 ~seed:4 () in
  let whp = Runner.run_whp_coin ~keyring:kr ~params:small ~round:0 ~seed:4 () in
  Alcotest.(check int) "completes at small lambda (seeded)" n (List.length whp.Runner.outputs);
  Alcotest.(check bool)
    (Printf.sprintf "whp %d < full %d" whp.Runner.coin_words full.Runner.coin_words)
    true
    (whp.Runner.coin_words < full.Runner.coin_words)

let qcheck_liveness =
  QCheck.Test.make ~name:"qcheck: whp coin liveness across seeds" ~count:15 QCheck.small_int
    (fun seed ->
      let o = run ~round:0 ~seed:(seed + 2000) () in
      List.length o.Runner.outputs = n)

let suite =
  [
    Alcotest.test_case "all return" `Quick test_all_return;
    Alcotest.test_case "unanimity common" `Slow test_unanimity_common;
    Alcotest.test_case "committee-sized traffic" `Quick test_only_committee_members_send;
    Alcotest.test_case "crash tolerance" `Quick test_crash_tolerance;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "rounds vary" `Slow test_rounds_vary;
    Alcotest.test_case "non-member FIRST rejected" `Quick test_non_member_first_rejected;
    Alcotest.test_case "member FIRST accepted" `Quick test_member_first_accepted;
    Alcotest.test_case "SECOND needs committee cert" `Quick test_second_requires_sender_cert;
    Alcotest.test_case "SECOND origin out of range" `Quick test_second_origin_out_of_range;
    Alcotest.test_case "phases resolved on first use" `Quick test_phases_resolved_on_first_use;
    Alcotest.test_case "memo sound under per-destination payloads" `Quick
      test_memo_per_destination;
    Alcotest.test_case "cheaper than Algorithm 1" `Quick test_words_scale_subquadratically;
    QCheck_alcotest.to_alcotest qcheck_liveness;
  ]
