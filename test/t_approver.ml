(* Algorithm 3 (approver): validity, graded agreement, termination, and
   the committee/signature validation that backs them. *)

open Core

let n = 64
let params = lazy (Tutil.robust_params n)
let keyring = lazy (Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"approver-test" ())

let run ?scheduler ?pre_corrupt ~inputs ~seed () =
  Runner.run_approver ?scheduler ?pre_corrupt ~keyring:(Lazy.force keyring)
    ~params:(Lazy.force params) ~inputs ~seed ()

let test_validity_unanimous () =
  (* All propose 1 => only possible return set is {1}. *)
  let o = run ~inputs:(Array.make n 1) ~seed:1 () in
  Alcotest.(check int) "all return" n (List.length o.Runner.returned);
  List.iter
    (fun (_, vs) -> Alcotest.(check (list int)) "validity" [ 1 ] vs)
    o.Runner.returned

let test_validity_unanimous_zero () =
  let o = run ~inputs:(Array.make n 0) ~seed:2 () in
  List.iter (fun (_, vs) -> Alcotest.(check (list int)) "validity 0" [ 0 ] vs) o.Runner.returned

let test_validity_with_bot () =
  let o = run ~inputs:(Array.make n Approver.bot) ~seed:3 () in
  List.iter
    (fun (_, vs) -> Alcotest.(check (list int)) "validity bot" [ Approver.bot ] vs)
    o.Runner.returned

let test_graded_agreement_mixed () =
  (* Mixed inputs: singleton returns must agree across processes, and every
     returned value must be someone's input (no invention). *)
  for seed = 1 to 10 do
    let inputs = Array.init n (fun i -> if i mod 2 = 0 then 0 else 1) in
    let o = run ~inputs ~seed:(seed * 7) () in
    let singletons =
      List.filter_map (fun (_, vs) -> match vs with [ v ] -> Some v | _ -> None) o.Runner.returned
    in
    (match List.sort_uniq compare singletons with
    | [] | [ _ ] -> ()
    | _ -> Alcotest.fail "two different singleton returns (graded agreement broken)");
    List.iter
      (fun (_, vs) ->
        List.iter
          (fun v -> Alcotest.(check bool) "returned value was an input" true (v = 0 || v = 1))
          vs)
      o.Runner.returned
  done

let test_termination_all_return () =
  for seed = 1 to 5 do
    let inputs = Array.init n (fun i -> if i < n / 3 then 0 else 1) in
    let o = run ~inputs ~seed:(seed * 13) () in
    Alcotest.(check int) "termination" n (List.length o.Runner.returned)
  done

let test_termination_with_crashes () =
  let p = Lazy.force params in
  let rng = Crypto.Rng.create 11 in
  let crashed = Crypto.Rng.sample_without_replacement rng p.Params.f n in
  let o = run ~pre_corrupt:crashed ~inputs:(Array.make n 1) ~seed:4 () in
  Alcotest.(check int) "survivors return" (n - p.Params.f) (List.length o.Runner.returned);
  List.iter (fun (_, vs) -> Alcotest.(check (list int)) "validity under crashes" [ 1 ] vs)
    o.Runner.returned

let test_nonempty_returns () =
  for seed = 20 to 25 do
    let inputs = Array.init n (fun i -> if i mod 3 = 0 then Approver.bot else 1) in
    let o = run ~inputs ~seed () in
    List.iter
      (fun (_, vs) -> Alcotest.(check bool) "non-empty" true (vs <> []))
      o.Runner.returned
  done

(* ------------- direct state-machine tests ------------- *)

let test_init_requires_committee () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let a = Approver.create ~keyring:kr ~params:p ~pid:0 ~instance:"d1" () in
  ignore (Approver.input a 1);
  (* forged init from a non-member *)
  let s_init = "d1/init" in
  let rec find_nonmember pid =
    let c = Sample.sample kr ~pid ~s:s_init ~lambda:p.Params.lambda in
    if c.Sample.member then find_nonmember (pid + 1) else (pid, c)
  in
  let pid, cert = find_nonmember 1 in
  let acts = Approver.handle a ~src:pid (Approver.Init { v = 1; cert = { cert with Sample.member = true } }) in
  Alcotest.(check bool) "forged init ignored" true (acts = [])

let test_echo_signature_checked () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let a = Approver.create ~keyring:kr ~params:p ~pid:0 ~instance:"d2" () in
  ignore (Approver.input a 1);
  let s_echo = "d2/echo/1" in
  let rec find_member pid =
    let c = Sample.sample kr ~pid ~s:s_echo ~lambda:p.Params.lambda in
    if c.Sample.member then (pid, c) else find_member (pid + 1)
  in
  let pid, cert = find_member 0 in
  (* echo with a signature over the wrong payload *)
  let bad_sig = Vrf.Keyring.sign kr pid "d2/echo-sig/0" in
  let acts = Approver.handle a ~src:pid (Approver.Echo { v = 1; cert; signature = bad_sig }) in
  Alcotest.(check bool) "bad echo signature ignored" true (acts = []);
  let good_sig = Vrf.Keyring.sign kr pid "d2/echo-sig/1" in
  ignore (Approver.handle a ~src:pid (Approver.Echo { v = 1; cert; signature = good_sig }))

let test_ok_support_validated () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let a = Approver.create ~keyring:kr ~params:p ~pid:0 ~instance:"d3" () in
  ignore (Approver.input a 1);
  let s_ok = "d3/ok" in
  let rec find_member pid =
    let c = Sample.sample kr ~pid ~s:s_ok ~lambda:p.Params.lambda in
    if c.Sample.member then (pid, c) else find_member (pid + 1)
  in
  let pid, cert = find_member 0 in
  (* ok with empty support: must be rejected (support must have W entries). *)
  let acts = Approver.handle a ~src:pid (Approver.Ok { v = 1; cert; support = [] }) in
  Alcotest.(check bool) "ok without support rejected" true (acts = []);
  Alcotest.(check bool) "no delivery" true (Approver.result a = None)

let test_ok_support_duplicate_pids_rejected () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let a = Approver.create ~keyring:kr ~params:p ~pid:0 ~instance:"d4" () in
  ignore (Approver.input a 1);
  let s_echo = "d4/echo/1" and s_ok = "d4/ok" in
  let rec find_member s pid =
    let c = Sample.sample kr ~pid ~s ~lambda:p.Params.lambda in
    if c.Sample.member then (pid, c) else find_member s (pid + 1)
  in
  let echo_pid, echo_cert = find_member s_echo 0 in
  let ok_pid, ok_cert = find_member s_ok 0 in
  let signature = Vrf.Keyring.sign kr echo_pid "d4/echo-sig/1" in
  let entry = { Approver.pid = echo_pid; cert = echo_cert; signature } in
  let support = List.init p.Params.w (fun _ -> entry) in
  let acts = Approver.handle a ~src:ok_pid (Approver.Ok { v = 1; cert = ok_cert; support }) in
  Alcotest.(check bool) "duplicate-pid support rejected" true (acts = [])

let test_input_idempotent () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let a = Approver.create ~keyring:kr ~params:p ~pid:0 ~instance:"d5" () in
  let first = Approver.input a 1 in
  let second = Approver.input a 0 in
  Alcotest.(check bool) "second input is a no-op" true (second = []);
  ignore first

let test_word_accounting () =
  let p = Lazy.force params in
  let ok =
    Approver.Ok
      {
        v = 1;
        cert = { Sample.member = true; vrf = { Vrf.beta = String.make 32 'x'; proof = "p" } };
        support =
          List.init p.Params.w (fun i ->
              {
                Approver.pid = i;
                cert = { Sample.member = true; vrf = { Vrf.beta = String.make 32 'y'; proof = "q" } };
                signature = "s";
              });
      }
  in
  (* tag+value + cert (2) + W * (pid + cert(2) + sig) *)
  Alcotest.(check int) "ok words" (2 + 2 + (p.Params.w * 4)) (Approver.words_of_msg ok);
  Alcotest.(check int) "init words" 4
    (Approver.words_of_msg
       (Approver.Init { v = 1; cert = { Sample.member = true; vrf = { Vrf.beta = ""; proof = "" } } }))

(* ------------- Byzantine pids outside [0, n) ------------- *)

let find_member kr ~s ~lambda =
  match Sample.committee kr ~s ~lambda with
  | pid :: _ -> (pid, Sample.sample kr ~pid ~s ~lambda)
  | [] -> Alcotest.failf "committee %s is empty" s

(* The first W members of C(<echo,v>), each with a valid certificate and
   a valid signature on the echo payload: an OK support that verifies. *)
let valid_support kr p ~instance v =
  let lambda = p.Params.lambda in
  let s_echo = Printf.sprintf "%s/echo/%d" instance v in
  let payload = Printf.sprintf "%s/echo-sig/%d" instance v in
  List.filteri (fun i _ -> i < p.Params.w) (Sample.committee kr ~s:s_echo ~lambda)
  |> List.map (fun pid ->
         {
           Approver.pid;
           cert = Sample.sample kr ~pid ~s:s_echo ~lambda;
           signature = Vrf.Keyring.sign kr pid payload;
         })

let test_ok_support_pid_out_of_range () =
  (* A support entry naming no process, with a certificate that claims
     membership, must be rejected like any other invalid entry rather than
     reach the keyring with a pid it has no key for. *)
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let instance = "d6" in
  let support = valid_support kr p ~instance 1 in
  let ok_pid, ok_cert = find_member kr ~s:(instance ^ "/ok") ~lambda:p.Params.lambda in
  List.iter
    (fun bad ->
      let a = Approver.create ~keyring:kr ~params:p ~pid:0 ~instance () in
      let first = List.hd support in
      let entry = { first with Approver.pid = bad } in
      let support = entry :: List.tl support in
      let acts = Approver.handle a ~src:ok_pid (Approver.Ok { v = 1; cert = ok_cert; support }) in
      Alcotest.(check bool) (Printf.sprintf "support pid %d rejected" bad) true (acts = []);
      Alcotest.(check bool) "no delivery" true (Approver.result a = None))
    [ n; -1; max_int ]

(* ------------- the shared memo under per-destination variation ------------- *)

let encode a =
  let b = Buffer.create 64 in
  Approver.encode b a;
  Buffer.contents b

(* Receiver i gets delivery i through one shared cache; its twin gets the
   same message through a cache of its own, which is the uncached
   verdict.  The two must end in the same state.  Returns the twins'
   encodings. *)
let against_uncached ~name ~instance deliveries =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let dir = Sample.Directory.create kr ~lambda:p.Params.lambda in
  let cache = Approver.cache () in
  List.mapi
    (fun i (src, msg) ->
      let receiver cache = Approver.create ~dir ~cache ~keyring:kr ~params:p ~pid:i ~instance () in
      let shared = receiver cache and alone = receiver (Approver.cache ()) in
      ignore (Approver.handle shared ~src msg : Approver.action list);
      ignore (Approver.handle alone ~src msg : Approver.action list);
      Alcotest.(check string) (Printf.sprintf "%s, receiver %d" name i) (encode alone) (encode shared);
      encode alone)
    deliveries

let test_memo_per_destination () =
  (* One Byzantine sender gives one receiver a valid payload and another a
     forged one, in both orders, and then the first payload again. *)
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let lambda = p.Params.lambda in
  let instance = "memo" in
  let both_orders name valid forged =
    let a = against_uncached ~name:(name ^ ", valid first") ~instance [ valid; forged; valid ] in
    ignore (against_uncached ~name:(name ^ ", forged first") ~instance [ forged; valid; forged ]
             : string list);
    Alcotest.(check bool) (name ^ ": only the valid payload is accepted") true
      (List.nth a 0 <> List.nth a 1)
  in
  let init_src, init_cert = find_member kr ~s:(instance ^ "/init") ~lambda in
  both_orders "INIT"
    (init_src, Approver.Init { v = 1; cert = init_cert })
    (init_src, Approver.Init { v = 1; cert = Tutil.forge_cert init_cert });
  let support = valid_support kr p ~instance 1 in
  let echo = List.hd support in
  let echo_msg (e : Approver.echo_evidence) =
    (e.Approver.pid, Approver.Echo { v = 1; cert = e.Approver.cert; signature = e.Approver.signature })
  in
  let bad_sig = { echo with Approver.signature = Vrf.Keyring.sign kr echo.Approver.pid "other" } in
  let bad_cert = { echo with Approver.cert = Tutil.forge_cert echo.Approver.cert } in
  both_orders "ECHO signature" (echo_msg echo) (echo_msg bad_sig);
  both_orders "ECHO certificate" (echo_msg echo) (echo_msg bad_cert);
  let ok_src, ok_cert = find_member kr ~s:(instance ^ "/ok") ~lambda in
  let ok support = (ok_src, Approver.Ok { v = 1; cert = ok_cert; support }) in
  let forged_support = bad_sig :: List.tl support in
  both_orders "OK" (ok support) (ok forged_support);
  both_orders "OK certificate" (ok support)
    (ok_src, Approver.Ok { v = 1; cert = Tutil.forge_cert ok_cert; support });
  (* ECHO inside an OK's support: the direct ECHO and the support entry
     share the echo sender's memo slot. *)
  let mixed name deliveries =
    ignore (against_uncached ~name:(name ^ ", reversed") ~instance (List.rev deliveries)
             : string list);
    List.nth (against_uncached ~name ~instance deliveries) 1
  in
  let rejected = mixed "valid ECHO, OK with its forged entry" [ echo_msg echo; ok forged_support ] in
  let accepted = mixed "forged ECHO, OK with its valid entry" [ echo_msg bad_sig; ok support ] in
  ignore (mixed "forged ECHO certificate, OK with its valid entry" [ echo_msg bad_cert; ok support ]
           : string);
  Alcotest.(check bool) "only the OK with the valid entry is accepted" true (rejected <> accepted)

(* ------------- reject before allocating ------------- *)

(* Byzantine INITs that name fresh values, or carry a forged certificate,
   must grow no state and cost no VRF evaluation: per-value state would
   bring an echo committee (n evaluations) with it. *)
let test_forged_inits_leave_no_state () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let instance = "d7" in
  let a = Approver.create ~keyring:kr ~params:p ~pid:0 ~instance () in
  ignore (Approver.input a 1 : Approver.action list);
  let src, cert = find_member kr ~s:(instance ^ "/init") ~lambda:p.Params.lambda in
  ignore (Approver.handle a ~src (Approver.Init { v = 1; cert }) : Approver.action list);
  let before = encode a and evaluations = Vrf.Keyring.evaluations kr in
  let dropped label msg =
    Alcotest.(check bool) label true (Approver.handle a ~src msg = [])
  in
  for i = 1 to 100 do
    let v = if i mod 2 = 0 then 1 + i else -1 - i in
    dropped (Printf.sprintf "INIT(%d) dropped" v) (Approver.Init { v; cert })
  done;
  let forged = Tutil.forge_cert cert in
  for _ = 1 to 100 do
    dropped "forged INIT(0) dropped" (Approver.Init { v = 0; cert = forged })
  done;
  dropped "ECHO(2) dropped" (Approver.Echo { v = 2; cert; signature = "" });
  dropped "OK(2) dropped" (Approver.Ok { v = 2; cert; support = [] });
  Alcotest.(check string) "state unchanged" before (encode a);
  Alcotest.(check int) "no VRF evaluation" evaluations (Vrf.Keyring.evaluations kr);
  Alcotest.check_raises "input outside {0, 1, bot}"
    (Invalid_argument "Approver.input: value must be 0, 1 or bot") (fun () ->
      ignore (Approver.input (Approver.create ~keyring:kr ~params:p ~pid:1 ~instance ()) 2))

(* ECHOs and OKs that fail their rank, certificate or support checks
   must not create the counters of a value no accepted message has named:
   only the value's echo phase exists, and it is not state. *)
let test_rejected_echo_ok_leave_no_state () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let lambda = p.Params.lambda in
  let instance = "d9" in
  let a = Approver.create ~keyring:kr ~params:p ~pid:0 ~instance () in
  ignore (Approver.input a 1 : Approver.action list);
  let before = encode a in
  let s_echo v = Printf.sprintf "%s/echo/%d" instance v in
  let signature pid = Vrf.Keyring.sign kr pid (instance ^ "/echo-sig/0") in
  let echo0 = Sample.committee kr ~s:(s_echo 0) ~lambda in
  let nonmember =
    match List.find_opt (fun pid -> not (List.mem pid echo0)) (List.init n Fun.id) with
    | Some pid -> pid
    | None -> Alcotest.fail "echo committee is everyone"
  in
  let both =
    match List.find_opt (fun pid -> List.mem pid (Sample.committee kr ~s:(s_echo 1) ~lambda)) echo0 with
    | Some pid -> pid
    | None -> Alcotest.fail "no member of both echo committees"
  in
  let dropped label src msg =
    Alcotest.(check bool) label true (Approver.handle a ~src msg = []);
    Alcotest.(check string) (label ^ ": state unchanged") before (encode a)
  in
  let claimed pid = { (Sample.sample kr ~pid ~s:(s_echo 0) ~lambda) with Sample.member = true } in
  dropped "ECHO(0) from a non-member" nonmember
    (Approver.Echo { v = 0; cert = claimed nonmember; signature = signature nonmember });
  dropped "ECHO(0) from a pid outside [0, n)" n
    (Approver.Echo { v = 0; cert = claimed both; signature = signature both });
  dropped "ECHO(0) with an ECHO(1) certificate" both
    (Approver.Echo
       { v = 0; cert = Sample.sample kr ~pid:both ~s:(s_echo 1) ~lambda; signature = signature both });
  let support = valid_support kr p ~instance 0 in
  let forged =
    match support with
    | first :: rest -> { first with Approver.signature = signature (first.Approver.pid + 1) } :: rest
    | [] -> Alcotest.fail "empty support"
  in
  let ok_src, ok_cert = find_member kr ~s:(instance ^ "/ok") ~lambda in
  dropped "OK(0) with forged support" ok_src
    (Approver.Ok { v = 0; cert = ok_cert; support = forged })

(* A phase resolves on first use.  Resolving one must not change the
   instance's encoding, or the model checker would split states. *)
let test_unresolved_encodes_as_empty () =
  let kr = Lazy.force keyring in
  let p = Lazy.force params in
  let instance = "d8" in
  let fresh () = Approver.create ~keyring:kr ~params:p ~pid:0 ~instance () in
  let a = fresh () and b = fresh () in
  let evaluations = Vrf.Keyring.evaluations kr in
  (* Messages from a pid that names no process: rejected, after their
     phase resolved. *)
  let cert = { Sample.member = true; vrf = { Vrf.beta = ""; proof = "" } } in
  ignore (Approver.handle b ~src:n (Approver.Init { v = 1; cert }) : Approver.action list);
  ignore (Approver.handle b ~src:n (Approver.Ok { v = 1; cert; support = [] }) : Approver.action list);
  Alcotest.(check int) "INIT and OK committees resolved" (evaluations + (2 * n))
    (Vrf.Keyring.evaluations kr);
  Alcotest.(check string) "unresolved = empty resolved" (encode a) (encode b)

let qcheck_validity_random_unanimous =
  QCheck.Test.make ~name:"qcheck: approver validity for random unanimous values" ~count:8
    QCheck.(pair small_int (int_range 0 1))
    (fun (seed, v) ->
      let o = run ~inputs:(Array.make n v) ~seed:(seed + 3000) () in
      List.for_all (fun (_, vs) -> vs = [ v ]) o.Runner.returned)

let suite =
  [
    Alcotest.test_case "validity (all 1)" `Quick test_validity_unanimous;
    Alcotest.test_case "validity (all 0)" `Quick test_validity_unanimous_zero;
    Alcotest.test_case "validity (all bot)" `Quick test_validity_with_bot;
    Alcotest.test_case "graded agreement" `Slow test_graded_agreement_mixed;
    Alcotest.test_case "termination" `Quick test_termination_all_return;
    Alcotest.test_case "termination with crashes" `Quick test_termination_with_crashes;
    Alcotest.test_case "non-empty returns" `Slow test_nonempty_returns;
    Alcotest.test_case "init committee checked" `Quick test_init_requires_committee;
    Alcotest.test_case "echo signature checked" `Quick test_echo_signature_checked;
    Alcotest.test_case "ok support validated" `Quick test_ok_support_validated;
    Alcotest.test_case "duplicate support rejected" `Quick test_ok_support_duplicate_pids_rejected;
    Alcotest.test_case "input idempotent" `Quick test_input_idempotent;
    Alcotest.test_case "word accounting" `Quick test_word_accounting;
    Alcotest.test_case "ok support pid out of range" `Quick test_ok_support_pid_out_of_range;
    Alcotest.test_case "forged INITs leave no state" `Quick test_forged_inits_leave_no_state;
    Alcotest.test_case "rejected ECHOs and OKs leave no state" `Quick
      test_rejected_echo_ok_leave_no_state;
    Alcotest.test_case "unresolved phase encodes as empty" `Quick test_unresolved_encodes_as_empty;
    Alcotest.test_case "memo sound under per-destination payloads" `Quick
      test_memo_per_destination;
    QCheck_alcotest.to_alcotest qcheck_validity_random_unanimous;
  ]
