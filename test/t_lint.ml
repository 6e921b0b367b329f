(* coinlint fixtures: for every registry entry positive snippets (exact
   finding count), negative snippets (zero findings) and allowlisted
   variants, plus reporter-shape and engine-robustness checks.  Every
   fixture must typecheck — the rules run on the Typedtree — so a snippet
   declares the mock modules it references.  Each fixture is also linted
   with its rule's registry entry removed, which must drop the count to
   zero, and one generic check proves every entry has a fixture it fires
   on: these tests fail if a rule is ever disabled or stops matching. *)

let lint ?(rel = "lib/x.ml") ?only src =
  let rules =
    match only with
    | None -> Coinlint.Registry.all
    | Some names -> List.filter_map Coinlint.Registry.find names
  in
  Coinlint.Engine.lint_source ~rules ~rel src

let count rule findings =
  List.length (List.filter (fun f -> String.equal f.Coinlint.Engine.rule rule) findings)

let without rule =
  List.filter_map
    (fun (r : Coinlint.Engine.rule) -> if String.equal r.name rule then None else Some r.name)
    Coinlint.Registry.all

type fixture = { name : string; rule : string; rel : string; expect : int; src : string }

let fx ?(rel = "lib/x.ml") name rule expect src = { name; rule; rel; expect; src }

(* [expect] findings of [rule] in [src]; disabling the rule must zero the
   count. *)
let check_fixture { rule; rel; expect; src; _ } () =
  let fs = lint ~rel src in
  Alcotest.(check int) (rule ^ " fixture typechecks") 0 (count "typecheck" fs);
  Alcotest.(check int) (rule ^ " findings") expect (count rule fs);
  Alcotest.(check int) (rule ^ " disabled") 0 (count rule (lint ~rel ~only:(without rule) src))

(* ------------------------------ mocks -------------------------------- *)

let a1_msg =
  "type msg = A1 of int | A2 of int | Cn of int\nlet g _ = ()\nlet h _ = ()\nlet k _ = ()\n"
let keyring = "module Keyring = struct let verify _ _ = true end\n"
let span_mod = "module Span = struct let begin_span _ = 1 let end_span _ = () end\n"

(* Mirror of lib/core/analysis.ml's campaign: a mutable-record keyring,
   sharded metrics with a claim, and Exec.map with the single-worker
   guard.  Everything the classifier needs is declared here. *)
let campaign_prelude =
  "module Vrf = struct\n\
  \  module Keyring = struct\n\
  \    type t = { mutable hits : int }\n\
  \    let clone (k : t) = { hits = k.hits }\n\
  \  end\n\
   end\n\
   module Obs = struct\n\
  \  module Metrics = struct\n\
  \    type t = { mutable count : int }\n\
  \    module Sharded = struct\n\
  \      type s = { shards : t array }\n\
  \      let claim s w = s.shards.(w)\n\
  \    end\n\
  \  end\n\
   end\n\
   module Exec = struct\n\
  \  let resolve_jobs j = j\n\
  \  let map ?(jobs = 1) ~ctx n f = ignore jobs; List.init n (fun i -> f (ctx 0) i)\n\
   end\n\
   type campaign_obs = { obs_metrics : Obs.Metrics.Sharded.s; obs_spans : int array }\n\
   type slot = { slot_keyring : Vrf.Keyring.t; slot_obs : (Obs.Metrics.t * int) option }\n\
   let use (k : Vrf.Keyring.t) = k.Vrf.Keyring.hits <- k.Vrf.Keyring.hits + 1\n"

(* The campaign of lib/core/analysis.ml, with the Exec.map spelling, the
   single-worker guard, the multi-worker keyring hand-off and Exec.map's
   trial closure as parameters, plus one estimator that calls it. *)
let campaign ?(map = "Exec.map") ?(hand_off = "Vrf.Keyring.clone keyring")
    ?(guard = "Exec.resolve_jobs jobs <= 1") ?(trial_fn = "(fun slot i -> trial slot i)") () =
  Printf.sprintf
    "let campaign ?obs ~jobs ~keyring trials trial =\n\
    \  %s ~jobs trials\n\
    \    ~ctx:(fun w ->\n\
    \      let slot_keyring = if %s then keyring else %s in\n\
    \      let slot_obs =\n\
    \        match obs with\n\
    \        | Some o -> Some (Obs.Metrics.Sharded.claim o.obs_metrics w, o.obs_spans.(w))\n\
    \        | None -> None\n\
    \      in\n\
    \      { slot_keyring; slot_obs })\n\
    \    %s\n\
     let estimate ~jobs ~keyring trials =\n\
    \  campaign ~jobs ~keyring trials (fun slot i -> use slot.slot_keyring; i)\n"
    map guard hand_off trial_fn

let analysis = "lib/core/analysis.ml"

(* Self-contained mirror of Rbc's three spec'd guards (the fixture
   typechecker resolves only the stdlib, so the real module cannot be
   referenced; the real files are covered by the repo scan). *)
let q_rbc_clean =
  "type t = { n : int; f : int }\n\
   let echo_threshold t = (t.n + t.f + 2) / 2\n\
   let handle t c r =\n\
  \  (if c >= echo_threshold t then 1 else 0)\n\
  \  + (if r >= t.f + 1 then 2 else 0)\n\
  \  + (if r >= (2 * t.f) + 1 then 4 else 0)\n"

(* THE seeded mutation: Rbc's deliver guard 2f+1 -> 2f. *)
let q_off_by_one =
  "type t = { n : int; f : int }\n\
   let echo_threshold t = (t.n + t.f + 2) / 2\n\
   let handle t c r =\n\
  \  (if c >= echo_threshold t then 1 else 0)\n\
  \  + (if r >= t.f + 1 then 2 else 0)\n\
  \  + (if r >= 2 * t.f then 4 else 0)\n"

(* The echo wait deleted outright: only coverage can see that. *)
let q_dropped_echo =
  "type t = { n : int; f : int }\n\
   let handle t c r =\n\
  \  ignore c;\n\
  \  (if r >= t.f + 1 then 2 else 0) + (if r >= (2 * t.f) + 1 then 4 else 0)\n"

let rbc = "lib/baselines/rbc.ml"

(* ----------------------------- fixtures ------------------------------ *)

let fixtures =
  [
    fx "r1 poly-compare positives" "poly-compare" 4
      "let a x y = compare x y\n\
       let b xs = List.mem 3 xs\n\
       let c kvs = List.assoc \"k\" kvs\n\
       let d h = Hashtbl.hash h\n";
    fx "r1 =/<> on crypto paths" "poly-compare" 2
      ("module Bignum = struct module Bigint = struct let of_int x = x end end\n\
        module Vrf = struct type t = { beta : string } end\n"
     ^ "let a x y = Bignum.Bigint.of_int x = y\nlet b u v = u.Vrf.beta <> v.Vrf.beta\n");
    fx "r1 =/<> on structured literals" "poly-compare" 2
      ("type r = { n : int; m : int }\n"
     ^ "let a x = x = (1, 2)\nlet b y = { y with n = 0 } <> y\n");
    fx "r1 negatives" "poly-compare" 0
      ("module Bignum = struct module Bigint = struct module Mont = struct let mul _ x _ = x end \
        end end\n"
     ^ "let a x y = Int.compare x y\n\
        let b s t = String.equal s t\n\
        let c x = x = 3\n\
        let d x y = x <> y\n\
        let e m x y = Bignum.Bigint.Mont.mul m x y\n");
    fx "r1 allow on expression" "poly-compare" 0
      "let a x y = (compare x y [@lint.allow \"poly-compare\"])\n";
    fx "r1 allow on binding" "poly-compare" 0
      "let a x y = compare x y [@@lint.allow \"poly-compare\"]\n";
    fx "r1 allow floating" "poly-compare" 0
      "[@@@lint.allow \"poly-compare\"]\nlet a x y = compare x y\n";
    fx ~rel:"lib/sim/x.ml" "r2 determinism positives in lib/sim" "determinism" 3
      "let a () = Random.int 10\nlet b () = Sys.time ()\nlet c () = Unix.gettimeofday ()\n";
    fx ~rel:"lib/core/x.ml" "r2 scoped to lib/core" "determinism" 1 "let a () = Random.bits ()\n";
    fx ~rel:"bench/x.ml" "r2 self_init banned everywhere" "determinism" 1
      "let () = Random.self_init ()\n";
    fx ~rel:"bench/x.ml" "r2 wall clock fine outside core/sim" "determinism" 0
      "let a () = Sys.time ()\nlet b () = Unix.gettimeofday ()\n";
    fx ~rel:"lib/core/x.ml" "r2 seeded rng fine" "determinism" 0
      ("module Crypto = struct module Rng = struct let int _ n = n end end\n"
     ^ "let a rng = Crypto.Rng.int rng 2\n");
    fx ~rel:"lib/sim/x.ml" "r2 allow" "determinism" 0
      "let a () = (Sys.time () [@lint.allow \"determinism\"])\n";
    fx "r3 secret-hygiene positives" "secret-hygiene" 3
      ("type key = { sk : string; secret : string }\n\
        let pp fmt s = Format.pp_print_string fmt s\n\
        let pp_key = pp\n"
     ^ "let a sk = Printf.printf \"%s\" sk\n\
        let b t = Format.printf \"%a\" pp t.secret\n\
        let c key = pp_key Format.std_formatter key.sk\n");
    fx "r3 obs sink" "secret-hygiene" 1
      ("module Obs = struct module Metrics = struct let incr _ _ = () end end\nlet tag_of x = x\n"
     ^ "let a m secret = Obs.Metrics.incr m (tag_of secret)\n");
    fx "r3 negatives (sign/fingerprint fine)" "secret-hygiene" 0
      ("let fingerprint x = x\n\
        module Rsa = struct let sign _ _ = () let public_of_secret x = x end\n"
     ^ "let a pk = Printf.printf \"%s\" (fingerprint pk)\n\
        let b secret = Rsa.sign secret \"msg\"\n\
        let c sk = Rsa.public_of_secret sk\n");
    fx "r3 allow" "secret-hygiene" 0
      "let a sk = (Printf.printf \"%s\" sk [@lint.allow \"secret-hygiene\"])\n";
    fx "r4 fragile group match" "fragile-match" 1
      (a1_msg ^ "let f m = match m with A1 x -> g x | A2 x -> h x | _ -> ()\n");
    fx "r4 distinctive singleton" "fragile-match" 1
      ("type action = Broadcast of int | Decide of int\nlet send _ = ()\n"
     ^ "let f a = match a with Broadcast m -> send m | _ -> ()\n");
    fx "r4 qualified ambiguous ctor" "fragile-match" 1
      ("module Approver = struct type msg = Init | Echo | Ok of int end\n"
     ^ "let f m = match m with Approver.Ok _ -> 1 | _ -> 0\n");
    fx "r4 function keyword" "fragile-match" 1
      ("type coin = First of int | Second of int\n"
     ^ "let f = function First v -> v | _ -> assert false\n");
    fx "r4 exhaustive match fine" "fragile-match" 0
      (a1_msg ^ "let f m = match m with A1 x -> g x | A2 x -> h x | Cn x -> k x\n");
    fx "r4 stdlib Ok/Some not protocol" "fragile-match" 0
      "let f r = match r with Ok x -> x | _ -> 0\nlet g o = match o with Some x -> x | _ -> 1\n";
    fx "r4 allow" "fragile-match" 0
      (a1_msg
     ^ "let f m = ((match m with A1 x -> g x | _ -> ()) [@lint.allow \"fragile-match\"])\n");
    fx ~rel:"lib/core/x.ml" "r5 hashtbl iteration positives" "hashtbl-iter" 2
      "let a f h = Hashtbl.iter f h\nlet b f h = Hashtbl.fold f h []\n";
    fx ~rel:"lib/baselines/x.ml" "r5 scoped to baselines too" "hashtbl-iter" 1
      "let a h = Hashtbl.to_seq h\n";
    fx ~rel:"lib/obs/x.ml" "r5 fine outside protocol dirs" "hashtbl-iter" 0
      "let a f h = Hashtbl.fold f h []\n";
    fx ~rel:"lib/core/x.ml" "r5 point operations fine" "hashtbl-iter" 0
      "let a h k = Hashtbl.find_opt h k\nlet b h k v = Hashtbl.replace h k v\n";
    fx ~rel:"lib/core/x.ml" "r5 allow" "hashtbl-iter" 0
      "let a f h = (Hashtbl.fold f h [] [@lint.allow \"hashtbl-iter\"])\n";
    fx ~rel:"lib/core/x.ml" "r6 Domain.spawn/DLS outside lib/exec" "domain-hygiene" 2
      "let a f = Domain.spawn f\nlet b k = Domain.DLS.get k\n";
    fx ~rel:"lib/core/x.ml" "r6 sync primitives outside exec/bignum" "domain-hygiene" 3
      "let a () = Atomic.make 0\nlet b () = Mutex.create ()\nlet c cv m = Condition.wait cv m\n";
    fx ~rel:"bin/x.ml" "r6 applies to bin too" "domain-hygiene" 1 "let a f = Domain.spawn f\n";
    fx ~rel:"lib/exec/x.ml" "r6 lib/exec exempt" "domain-hygiene" 0
      "let a f = Domain.spawn f\nlet b () = Atomic.make 0\nlet c k = Domain.DLS.get k\n";
    fx ~rel:"lib/bignum/x.ml" "r6 bignum may use sync primitives" "domain-hygiene" 0
      "let a () = Atomic.make 0\nlet b () = Mutex.create ()\n";
    (* only the sync primitives are allowed in lib/bignum; spawning is not *)
    fx ~rel:"lib/bignum/x.ml" "r6 bignum may not spawn" "domain-hygiene" 1
      "let a f = Domain.spawn f\n";
    (* read-only Domain queries do not create parallelism *)
    fx ~rel:"lib/core/x.ml" "r6 read-only Domain queries fine" "domain-hygiene" 0
      "let a () = Domain.recommended_domain_count ()\nlet b () = Domain.is_main_domain ()\n";
    fx ~rel:"lib/core/x.ml" "r6 allow" "domain-hygiene" 0
      "let a f = (Domain.spawn f [@lint.allow \"domain-hygiene\"])\n";
    fx "s1 ignored-verify sequenced away" "ignored-verify" 1
      (keyring ^ "let a x = Keyring.verify x x; 42\n");
    fx "s1 ignored-verify passed to ignore" "ignored-verify" 1
      (keyring ^ "let a x = ignore (Keyring.verify x x)\n");
    (* both the local `let _ =` and the top-level `let _ok =` drop the bit *)
    fx "s1 ignored-verify bound to _" "ignored-verify" 2
      (keyring ^ "let a x = let _ = Keyring.verify x x in 0\nlet _ok = Keyring.verify 1 2\n");
    fx "s1 ignored-verify through alias" "ignored-verify" 1
      (keyring ^ "module K = Keyring\nlet a x = K.verify x x; 0\n");
    fx "s1 branch/return fine" "ignored-verify" 0
      (keyring ^ "let a x = if Keyring.verify x x then 1 else 2\nlet b x = Keyring.verify x x\n");
    fx "s1 allow" "ignored-verify" 0
      (keyring ^ "let a x = ignore (Keyring.verify x x [@lint.allow \"ignored-verify\"])\n");
    (* paths are resolved: aliases, opens and local modules do not evade *)
    fx ~rel:"lib/sim/x.ml" "sem determinism: module alias evades syntactic" "determinism" 1
      "module R = Random\nlet a () = R.int 10\n";
    fx ~rel:"lib/core/x.ml" "sem determinism: open Sys evades syntactic" "determinism" 1
      "open Sys\nlet a () = time ()\n";
    fx ~rel:"lib/core/x.ml" "sem determinism: open Unix evades syntactic" "determinism" 1
      "open Unix\nlet a () = gettimeofday ()\n";
    fx ~rel:"lib/sim/x.ml" "sem determinism: let module evades syntactic" "determinism" 1
      "let a () = let module Q = Random in Q.bits ()\n";
    fx ~rel:"bench/x.ml" "sem determinism: aliased self_init" "determinism" 1
      "module R = Random\nlet () = R.self_init ()\n";
    fx ~rel:"bench/x.ml" "sem determinism: negatives" "determinism" 0
      "module R = Random\nlet a () = R.int 10\n";
    fx ~rel:"lib/sim/x.ml" "sem determinism: allow" "determinism" 0
      "module R = Random\nlet a () = (R.int 10 [@lint.allow \"determinism\"])\n";
    fx "sem secret-hygiene: aliased Printf evades syntactic" "secret-hygiene" 1
      "module P = Printf\nlet a sk = P.printf \"%s\" sk\n";
    fx "sem secret-hygiene: open Printf evades syntactic" "secret-hygiene" 1
      "open Printf\nlet a secret = printf \"%s\" secret\n";
    fx "sem secret-hygiene: negatives" "secret-hygiene" 0
      "module P = Printf\nlet a pk = P.printf \"%s\" pk\n";
    fx "sem secret-hygiene: allow" "secret-hygiene" 0
      "module P = Printf\nlet a sk = (P.printf \"%s\" sk [@lint.allow \"secret-hygiene\"])\n";
    fx ~rel:"lib/core/x.ml" "sem domain-hygiene: aliased Domain evades syntactic" "domain-hygiene" 1
      "module D = Domain\nlet a f = D.spawn f\n";
    fx ~rel:"lib/core/x.ml" "sem domain-hygiene: aliased Atomic evades syntactic" "domain-hygiene" 1
      "module A = Atomic\nlet a () = A.make 0\n";
    fx ~rel:"lib/exec/x.ml" "sem domain-hygiene: lib/exec exempt" "domain-hygiene" 0
      "module D = Domain\nlet a f = D.spawn f\n";
    fx ~rel:"lib/core/x.ml" "sem domain-hygiene: allow" "domain-hygiene" 0
      "module D = Domain\nlet a f = (D.spawn f [@lint.allow \"domain-hygiene\"])\n";
    (* all constructors handled, but a live catch-all still swallows any
       constructor added tomorrow *)
    fx ~rel:"lib/core/coin.ml" "s5 catch-all over msg" "handler-exhaustiveness" 1
      "type msg = First | Second\n\
       let handle m = match m with First -> 1 | Second -> 2 | _ -> 3\n\
       let tag_of_msg = function First -> \"F\" | Second -> \"S\"\n";
    fx ~rel:"lib/core/coin.ml" "s5 constructor never consumed" "handler-exhaustiveness" 1
      "type msg = First | Second | Third\n\
       let handle m = match m with First -> 1 | Second -> 2\n\
       let tag_of_msg = function First -> \"F\" | Second -> \"S\" | Third -> \"T\"\n";
    fx ~rel:"lib/core/coin.ml" "s5 tag_of_msg wildcard" "handler-exhaustiveness" 1
      "type msg = First | Second\n\
       let handle m = match m with First -> 1 | Second -> 2\n\
       let tag_of_msg = function First -> \"F\" | _ -> \"X\"\n";
    fx ~rel:"lib/core/coin.ml" "s5 tag_of_msg missing arm" "handler-exhaustiveness" 1
      "type msg = First | Second\n\
       let handle m = match m with First -> 1 | Second -> 2\n\
       let tag_of_msg = function First -> \"F\"\n";
    fx ~rel:"lib/core/coin.ml" "s5 msg without handler" "handler-exhaustiveness" 1
      "type msg = First\nlet tag_of_msg = function First -> \"F\"\n";
    fx ~rel:"lib/core/coin.ml" "s5 exhaustive module fine" "handler-exhaustiveness" 0
      "type msg = First | Second\n\
       let handle m = match m with First -> 1 | Second -> 2\n\
       let tag_of_msg = function First -> \"F\" | Second -> \"S\"\n";
    (* a `msg` type in a non-protocol module carries no handler obligations *)
    fx "s5 non-protocol module exempt" "handler-exhaustiveness" 0
      "type msg = First | Second\nlet handle m = match m with First -> 1 | _ -> 0\n";
    fx ~rel:"lib/core/coin.ml" "s5 allow" "handler-exhaustiveness" 0
      "[@@@lint.allow \"handler-exhaustiveness\"]\n\
       type msg = First | Second\n\
       let handle m = match m with First -> 1 | _ -> 0\n";
    fx "s6 unbalanced begin_span" "span-balance" 1
      (span_mod ^ "let a () = Span.begin_span \"phase\"\n");
    (* begin/end in different functions is fine: the obligation is per unit *)
    fx "s6 cross-function balance fine" "span-balance" 0
      (span_mod ^ "let a () = Span.begin_span \"phase\"\nlet b s = Span.end_span s\n");
    fx "s6 allow" "span-balance" 0
      (span_mod ^ "let a () = (Span.begin_span \"phase\" [@lint.allow \"span-balance\"])\n");
    (* the campaign with its Keyring.clone hand-off removed *)
    fx ~rel:analysis "race: clone-removed campaign mutant" "domain-escape" 1
      (campaign_prelude ^ campaign ~hand_off:"keyring" ());
    (* the same mutant with Exec and the keyring reached through aliases *)
    fx ~rel:analysis "race: mutant through module alias" "domain-escape" 1
      (campaign_prelude ^ "module E = Exec\nmodule K = Vrf.Keyring\n"
      ^ campaign ~map:"E.map" ~hand_off:"(keyring : K.t)" ());
    (* the worker closure captures the campaign's keyring directly *)
    fx ~rel:analysis "race: direct mutable capture" "domain-escape" 1
      (campaign_prelude ^ campaign ~trial_fn:"(fun slot i -> use keyring; trial slot i)" ());
    fx ~rel:analysis "domain-escape: trial function captures the caller's keyring" "domain-escape" 1
      (campaign_prelude ^ campaign ()
     ^ "let leaky ~jobs ~keyring trials =\n\
       \  campaign ~jobs ~keyring trials (fun _ i -> use keyring; i)\n");
    fx ~rel:analysis "domain-escape: Exec.map outside campaign" "domain-escape" 1
      (campaign_prelude ^ campaign ()
     ^ "let other ~jobs trials = Exec.map ~jobs ~ctx:(fun w -> w) trials (fun _ i -> i)\n");
    (* slot 0 keeping the caller's keyring while the others clone it *)
    fx ~rel:analysis "domain-escape: worker 0 keeps the caller's keyring" "domain-escape" 1
      (campaign_prelude ^ campaign ~guard:"w = 0" ());
    fx ~rel:analysis "domain-escape: worker argument shapes" "domain-escape" 2
      (campaign_prelude ^ "let slot_of k _ = { slot_keyring = k; slot_obs = None }\n"
      ^ "let named w = ignore w\n"
      ^ "let campaign ~jobs ~keyring trials =\n\
        \  ignore (Exec.map ~jobs ~ctx:(slot_of keyring) trials (fun _ i -> i));\n\
        \  ignore (Exec.map ~jobs ~ctx:named trials (fun () i -> i));\n\
        \  Exec.map ~jobs ~ctx:(if trials > 0 then named else named) trials (fun () i -> i)\n");
    fx ~rel:"lib/sim/x.ml" "race: global reach in protected trees" "global-mutable-reach" 1
      "let tbl : (int, int) Hashtbl.t = Hashtbl.create 16\nlet get k = Hashtbl.find_opt tbl k\n";
    fx ~rel:"lib/core/x.ml" "race: unguarded lazy force" "global-mutable-reach" 1
      "let f x = lazy (x + 1)\n";
    fx ~rel:rbc "quorum-guard: off-by-one deliver guard" "quorum-guard" 1 q_off_by_one;
    fx ~rel:rbc "quorum-coverage: dropped echo guard" "quorum-coverage" 1 q_dropped_echo;
  ]

(* Every registry entry has a fixture that fires, and removing the entry
   drops each of its fixtures' counts to zero. *)
let registry_entries_matter () =
  List.iter
    (fun (r : Coinlint.Engine.rule) ->
      let firing = List.filter (fun f -> String.equal f.rule r.name && f.expect > 0) fixtures in
      Alcotest.(check bool) (r.name ^ " has a firing fixture") true (firing <> []);
      List.iter (fun f -> check_fixture f ()) firing)
    Coinlint.Registry.all

(* ------------------------- campaign rules ----------------------------- *)

let campaign_sanctioned_clean () =
  (* the real campaign's shape, its clone spelled through an alias: no
     rule fires, and the single-worker branch shares the caller's keyring *)
  let src =
    campaign_prelude ^ "module K = Vrf.Keyring\n" ^ campaign ~hand_off:"K.clone keyring" ()
  in
  let fs = lint ~rel:analysis src in
  List.iter (fun f -> Format.eprintf "%a@." Coinlint.Engine.pp_finding f) fs;
  Alcotest.(check int) "sanctioned campaign is clean" 0 (List.length fs)

let campaign_single_worker_branch () =
  (* only `Exec.resolve_jobs _ <= 1` exempts its then-branch *)
  let clean = lint ~rel:analysis (campaign_prelude ^ campaign ()) in
  Alcotest.(check int) "guarded branch exempt" 0 (count "domain-escape" clean);
  let unguarded = lint ~rel:analysis (campaign_prelude ^ campaign ~guard:"jobs <= 1" ()) in
  Alcotest.(check int) "other guards are not" 1 (count "domain-escape" unguarded)

let global_state_scope () =
  (* the lib/sim case is the fixture "race: global reach in protected trees" *)
  let src = "let tbl : (int, int) Hashtbl.t = Hashtbl.create 16\n" in
  Alcotest.(check int) "bench silent" 0 (count "global-mutable-reach" (lint ~rel:"bench/x.ml" src));
  (* constant tables outside the four protocol trees stay legal *)
  Alcotest.(check int) "lib/crypto silent" 0
    (count "global-mutable-reach" (lint ~rel:"lib/crypto/x.ml" src));
  (* lazy is banned anywhere under lib/, and nowhere else *)
  let force = "let g l = Lazy.force l\n" in
  Alcotest.(check int) "Lazy under lib/obs" 1
    (count "global-mutable-reach" (lint ~rel:"lib/obs/x.ml" force));
  Alcotest.(check int) "Lazy in bin" 0 (count "global-mutable-reach" (lint ~rel:"bin/x.ml" force))

(* ---------------------------- quorum rules ---------------------------- *)

let qlint ?(rel = rbc) ?only src =
  let fs = lint ~rel ?only src in
  Alcotest.(check int) "quorum fixture typechecks" 0 (count "typecheck" fs);
  fs

let contains_s hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  go 0

let quorum_clean_fixture () =
  Alcotest.(check int) "clean mirror: no findings" 0 (List.length (qlint q_rbc_clean))

let quorum_unmatched_module () =
  (* A module with no spec entry carries no guard obligations. *)
  Alcotest.(check int) "no spec, no findings" 0
    (List.length (qlint ~rel:"lib/core/mystery.ml" q_rbc_clean))

(* A guard with no matched site is reported at the start of the unit,
   line 1 and column 0, not at a location with line 0 and column -1. *)
let check_coverage_located fs =
  List.iter
    (fun f ->
      if String.equal f.Coinlint.Engine.rule "quorum-coverage" then begin
        Alcotest.(check bool) "coverage finding on a real line" true (f.Coinlint.Engine.line >= 1);
        Alcotest.(check bool) "coverage finding at a real column" true (f.Coinlint.Engine.col >= 0)
      end)
    fs

let quorum_off_by_one () =
  (* One constant off a declared guard => quorum-guard names the spec
     entry it almost matches, and the deliver guard's site count drops
     => quorum-coverage. *)
  let fs = qlint q_off_by_one in
  Alcotest.(check int) "off-by-one flagged" 1 (count "quorum-guard" fs);
  Alcotest.(check int) "deliver guard uncovered" 1 (count "quorum-coverage" fs);
  check_coverage_located fs;
  Alcotest.(check bool) "finding names the near guard" true
    (List.exists
       (fun f ->
         String.equal f.Coinlint.Engine.rule "quorum-guard"
         && contains_s f.Coinlint.Engine.msg "deliver")
       fs)

let quorum_operator_flip () =
  (* > for >= is the same meaning-level off-by-one after rel folding. *)
  let src =
    "type t = { n : int; f : int }\n\
     let echo_threshold t = (t.n + t.f + 2) / 2\n\
     let handle t c r =\n\
    \  (if c >= echo_threshold t then 1 else 0)\n\
    \  + (if r > t.f + 1 then 2 else 0)\n\
    \  + (if r >= (2 * t.f) + 1 then 4 else 0)\n"
  in
  Alcotest.(check int) "flip flagged as off-by-one" 1 (count "quorum-guard" (qlint src))

let quorum_dropped_guard () =
  let fs = qlint q_dropped_echo in
  Alcotest.(check int) "no stray guard findings" 0 (count "quorum-guard" fs);
  Alcotest.(check int) "dropped echo guard caught" 1 (count "quorum-coverage" fs);
  check_coverage_located fs

let quorum_duplicated_guard () =
  let src =
    "type t = { n : int; f : int }\n\
     let echo_threshold t = (t.n + t.f + 2) / 2\n\
     let handle t c r =\n\
    \  (if c >= echo_threshold t then 1 else 0)\n\
    \  + (if r >= t.f + 1 then 2 else 0)\n\
    \  + (if r >= (2 * t.f) + 1 then 4 else 0)\n\
    \  + (if c >= (2 * t.f) + 1 then 8 else 0)\n"
  in
  Alcotest.(check int) "duplicated deliver guard caught" 1 (count "quorum-coverage" (qlint src))

let quorum_undeclared_guard () =
  let src =
    "type t = { n : int; f : int }\n\
     let echo_threshold t = (t.n + t.f + 2) / 2\n\
     let handle t c r =\n\
    \  (if c >= echo_threshold t then 1 else 0)\n\
    \  + (if r >= t.f + 1 then 2 else 0)\n\
    \  + (if r >= (2 * t.f) + 1 then 4 else 0)\n\
    \  + (if c >= t.n + 5 then 8 else 0)\n"
  in
  let fs = qlint src in
  Alcotest.(check int) "undeclared threshold flagged" 1 (count "quorum-guard" fs);
  Alcotest.(check int) "declared guards all covered" 0 (count "quorum-coverage" fs)

let quorum_lt_canonical () =
  (* Approver's W guards: Lt-canonicalized slice bound and retention. *)
  let src =
    "type t = { w : int }\n\
     let w t = t.w\n\
     let f t c i =\n\
    \  (if c >= w t then 1 else 0) + (if i < w t then 2 else 0)\n\
    \  + (if c <= w t then 4 else 0)\n"
  in
  Alcotest.(check int) "approver mirror clean" 0
    (List.length (qlint ~rel:"lib/core/approver.ml" src))

let quorum_rule_off_switch () =
  (* The registry entries are load-bearing: with no rules selected the
     walk reports nothing even on a mutated module. *)
  let src = "type t = { n : int; f : int }\nlet handle t r = if r >= 2 * t.f then 4 else 0\n" in
  Alcotest.(check int) "no rules, no findings" 0 (List.length (qlint ~only:[] src))

(* --------------------------- engine/reporter -------------------------- *)

let allow_scopes_dont_leak () =
  (* The allow frame covers only the attributed expression: a sibling
     violation in the same file must still be reported. *)
  let fs =
    lint "let a x y = (compare x y [@lint.allow \"poly-compare\"])\nlet b x y = compare x y\n"
  in
  Alcotest.(check int) "sibling still reported" 1 (count "poly-compare" fs)

let malformed_allow_reported () =
  let fs = lint "let a x y = (compare x y [@lint.allow 3])\n" in
  Alcotest.(check int) "malformed payload finding" 1 (count "lint" fs);
  Alcotest.(check int) "violation not suppressed" 1 (count "poly-compare" fs)

let parse_failure_reported () =
  (* a fixture that does not parse yields its typecheck finding *)
  Alcotest.(check int) "typecheck finding" 1 (count "typecheck" (lint "let (\n"))

let typecheck_failure_reported () =
  Alcotest.(check int) "typecheck finding" 1 (count "typecheck" (lint "let a : int = \"x\"\n"))

let findings_are_sorted () =
  let fs = lint "let b x y = compare x y\nlet a x y = compare x y\n" in
  Alcotest.(check (list int)) "line order" [ 1; 2 ] (List.map (fun f -> f.Coinlint.Engine.line) fs)

let json_shape () =
  let findings = lint ~rel:"lib/core/x.ml" "let a f h = Hashtbl.iter f h\n" in
  let rules = List.map (fun (r : Coinlint.Engine.rule) -> r.name) Coinlint.Registry.all in
  let doc = Coinlint.Engine.json_report ~rules ~units:1 ~baseline_suppressed:0 findings in
  let member k = Obs.Json.member k doc in
  let str k o = Option.bind (Obs.Json.member k o) Obs.Json.to_string_opt in
  Alcotest.(check (option string)) "schema" (Some "coincidence.lint/4") (str "schema" doc);
  Alcotest.(check (option int)) "units" (Some 1) (Option.bind (member "units") Obs.Json.to_int_opt);
  Alcotest.(check (option int)) "baseline_suppressed" (Some 0)
    (Option.bind (member "baseline_suppressed") Obs.Json.to_int_opt);
  Alcotest.(check (option int)) "count" (Some 1) (Option.bind (member "count") Obs.Json.to_int_opt);
  Alcotest.(check (list string)) "rules listed" rules
    (List.filter_map Obs.Json.to_string_opt
       (Obs.Json.to_list (Option.value ~default:Obs.Json.Null (member "rules"))));
  (match Obs.Json.to_list (Option.value ~default:Obs.Json.Null (member "findings")) with
  | [ f ] ->
      Alcotest.(check (option string)) "finding file" (Some "lib/core/x.ml") (str "file" f);
      Alcotest.(check (option string)) "finding rule" (Some "hashtbl-iter") (str "rule" f);
      Alcotest.(check (option string)) "finding symbol" (Some "a") (str "symbol" f);
      Alcotest.(check bool) "finding line present" true
        (Option.is_some (Option.bind (Obs.Json.member "line" f) Obs.Json.to_int_opt))
  | fs -> Alcotest.failf "expected exactly one finding object, got %d" (List.length fs));
  (* The document round-trips through the strict parser. *)
  match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "json round-trip: %s" e

let baseline_suppression () =
  let src = "let a f h = Hashtbl.iter f h\n" in
  let findings = lint ~rel:"lib/core/x.ml" src in
  let doc =
    Coinlint.Engine.json_report ~rules:[ "hashtbl-iter" ] ~units:1 ~baseline_suppressed:0 findings
  in
  match Coinlint.Engine.baseline_of_json doc with
  | Error e -> Alcotest.failf "baseline parse: %s" e
  | Ok keys ->
      (* the key is rule/file/symbol, so the finding stays suppressed
         when unrelated lines above it move it down the file *)
      let moved = lint ~rel:"lib/core/x.ml" ("\n\n" ^ src) in
      let kept, n, stale = Coinlint.Engine.apply_baseline ~baseline:keys moved in
      Alcotest.(check int) "moved finding suppressed" 0 (List.length kept);
      Alcotest.(check int) "suppressed count" 1 n;
      Alcotest.(check int) "no stale entries" 0 (List.length stale);
      (* a finding in a different symbol is new and must be kept; the
         baseline entry for the old symbol is now stale *)
      let other = lint ~rel:"lib/core/x.ml" "let b f h = Hashtbl.iter f h\n" in
      let kept2, n2, stale2 = Coinlint.Engine.apply_baseline ~baseline:keys other in
      Alcotest.(check int) "new symbol kept" 1 (List.length kept2);
      Alcotest.(check int) "nothing suppressed" 0 n2;
      match stale2 with
      | [ b ] ->
          Alcotest.(check string) "stale rule" "hashtbl-iter" b.Coinlint.Engine.b_rule;
          Alcotest.(check string) "stale symbol" "a" b.Coinlint.Engine.b_symbol
      | _ -> Alcotest.fail "expected exactly one stale baseline key"

let baseline_gc_roundtrip () =
  let mk rule file symbol = { Coinlint.Engine.file; line = 1; col = 0; rule; msg = "m"; symbol } in
  let live = mk "poly-compare" "lib/a.ml" "f" in
  let stale_f = mk "poly-compare" "lib/gone.ml" "g" in
  let doc =
    Coinlint.Engine.json_report ~rules:[ "poly-compare" ] ~units:2 ~baseline_suppressed:0
      [ live; stale_f ]
  in
  let path = Filename.temp_file "coinlint-baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      Obs.Json.to_channel oc doc;
      close_out oc;
      (* Current scan sees only [live]: the other entry is stale. *)
      let baseline =
        match Coinlint.Engine.baseline_of_json doc with
        | Ok b -> b
        | Error e -> Alcotest.failf "baseline parse: %s" e
      in
      let kept, suppressed, stale = Coinlint.Engine.apply_baseline ~baseline [ live ] in
      Alcotest.(check int) "live finding suppressed" 1 suppressed;
      Alcotest.(check int) "nothing survives" 0 (List.length kept);
      Alcotest.(check int) "one stale key" 1 (List.length stale);
      (match Coinlint.Engine.gc_baseline_file path ~stale with
      | Error e -> Alcotest.failf "gc: %s" e
      | Ok dropped -> Alcotest.(check int) "dropped one entry" 1 dropped);
      (* The rewritten file still parses and now misses only the stale key. *)
      match Coinlint.Engine.load_baseline path with
      | Error e -> Alcotest.failf "reparse: %s" e
      | Ok keys ->
          let kept2, suppressed2, stale2 = Coinlint.Engine.apply_baseline ~baseline:keys [ live ] in
          Alcotest.(check int) "still suppresses live" 1 suppressed2;
          Alcotest.(check int) "no stale left" 0 (List.length stale2);
          Alcotest.(check int) "gc is idempotent on findings" 0 (List.length kept2))

let repo_is_clean () =
  (* Zero findings over the real tree's typedtrees, every rule at once.
     Under dune the loader reads the build context's .cmt files (those
     built so far); the root dune rule, which depends on the check alias,
     scans the complete set. *)
  match Coinlint.Cmt_loader.load ~allow_build:false [ "lib"; "bin"; "bench" ] with
  | [] -> ()
  | units ->
      let findings = Coinlint.Engine.lint_units ~rules:Coinlint.Registry.all units in
      List.iter (fun f -> Format.eprintf "%a@." Coinlint.Engine.pp_finding f) findings;
      Alcotest.(check int) "repo findings" 0 (List.length findings)

let suite =
  List.map (fun f -> Alcotest.test_case f.name `Quick (check_fixture f)) fixtures
  @ [
      Alcotest.test_case "registry: every entry has a firing fixture" `Quick
        registry_entries_matter;
      Alcotest.test_case "race: sanctioned clone clean" `Quick campaign_sanctioned_clean;
      Alcotest.test_case "race: sequential guard unchecked" `Quick campaign_single_worker_branch;
      Alcotest.test_case "global-mutable-reach: scope" `Quick global_state_scope;
      Alcotest.test_case "quorum: clean rbc mirror" `Quick quorum_clean_fixture;
      Alcotest.test_case "quorum: unmatched module exempt" `Quick quorum_unmatched_module;
      Alcotest.test_case "quorum: 2f+1 -> 2f off-by-one" `Quick quorum_off_by_one;
      Alcotest.test_case "quorum: operator flip" `Quick quorum_operator_flip;
      Alcotest.test_case "quorum: dropped wait guard" `Quick quorum_dropped_guard;
      Alcotest.test_case "quorum: duplicated guard" `Quick quorum_duplicated_guard;
      Alcotest.test_case "quorum: undeclared threshold" `Quick quorum_undeclared_guard;
      Alcotest.test_case "quorum: Lt canonicalization (approver)" `Quick quorum_lt_canonical;
      Alcotest.test_case "quorum: registry load-bearing" `Quick quorum_rule_off_switch;
      Alcotest.test_case "allow scope does not leak" `Quick allow_scopes_dont_leak;
      Alcotest.test_case "malformed allow payload reported" `Quick malformed_allow_reported;
      Alcotest.test_case "parse failure reported" `Quick parse_failure_reported;
      Alcotest.test_case "typecheck failure reported" `Quick typecheck_failure_reported;
      Alcotest.test_case "findings sorted" `Quick findings_are_sorted;
      Alcotest.test_case "json reporter shape" `Quick json_shape;
      Alcotest.test_case "baseline keyed by rule/file/symbol" `Quick baseline_suppression;
      Alcotest.test_case "baseline --gc drops stale entries" `Quick baseline_gc_roundtrip;
      Alcotest.test_case "repo scan is clean" `Quick repo_is_clean;
    ]
