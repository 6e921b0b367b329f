(* The Exec domain pool and the keyring verification memo cache.

   The pool's contract is byte-identical output for every jobs value:
   identical estimator records, identical exception, identical ordering.
   The cache's contract is semantic invisibility: cached and uncached
   keyrings agree on valid, tampered and wrong-signer inputs, under a
   bound small enough to force eviction. *)

open Core

let n = 16
let keyring = lazy (Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"exec-test" ())
let params = lazy (Params.make_exn ~strict:false ~lambda:10 ~n ())

(* ----------------------------- Exec.map ------------------------------ *)

let test_map_ordered () =
  let expected = List.init 100 (fun i -> i * i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Exec.map ~jobs ~ctx:(fun _ -> ()) 100 (fun () i -> i * i)))
    [ 1; 2; 4; 7 ]

let test_map_ctx_per_worker () =
  let count = Atomic.make 0 in
  let ctx _ = Atomic.incr count in
  ignore (Exec.map ~jobs:4 ~ctx 100 (fun () i -> i));
  Alcotest.(check int) "one ctx per worker" 4 (Atomic.get count);
  (* fewer items than workers: the pool must not spawn idle domains *)
  Atomic.set count 0;
  Alcotest.(check (list int)) "n < jobs" [ 0; 1; 2 ] (Exec.map ~jobs:8 ~ctx 3 (fun () i -> i));
  Alcotest.(check int) "workers capped at n" 3 (Atomic.get count)

let test_map_edges () =
  Alcotest.(check (list int)) "n = 0" [] (Exec.map ~jobs:4 ~ctx:(fun _ -> ()) 0 (fun () i -> i));
  Alcotest.(check (list int)) "n = 1" [ 7 ]
    (Exec.map ~jobs:4 ~ctx:(fun _ -> ()) 1 (fun () _ -> 7));
  Alcotest.check_raises "negative n" (Invalid_argument "Exec.map: negative length") (fun () ->
      ignore (Exec.map ~ctx:(fun _ -> ()) (-1) (fun () i -> i)));
  Alcotest.check_raises "negative jobs"
    (Invalid_argument "Exec: jobs must be >= 0 (0 = recommended domain count)") (fun () ->
      ignore (Exec.map ~jobs:(-2) ~ctx:(fun _ -> ()) 4 (fun () i -> i)));
  (* jobs = 0 resolves to the recommended domain count, whatever it is *)
  Alcotest.(check (list int)) "jobs = 0" [ 0; 1; 2; 3 ]
    (Exec.map ~jobs:0 ~ctx:(fun _ -> ()) 4 (fun () i -> i));
  Alcotest.(check bool) "resolve_jobs 0 positive" true (Exec.resolve_jobs 0 >= 1);
  Alcotest.(check int) "resolve_jobs passthrough" 5 (Exec.resolve_jobs 5)

(* Whichever worker hits them, the smallest raising index must win —
   that is the exception a sequential left-to-right run surfaces. *)
let test_exception_propagation () =
  let f () i = if i mod 10 = 3 then failwith (Printf.sprintf "trial-%d" i) else i in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d raises smallest index" jobs)
        (Failure "trial-3")
        (fun () -> ignore (Exec.map ~jobs ~ctx:(fun _ -> ()) 50 f)))
    [ 1; 2; 4 ]

(* ----------------------- estimator determinism ----------------------- *)

(* Structural equality is the whole point here: every float in the record
   must be bit-identical, not merely close. *)

let test_estimate_shared_coin_jobs () =
  let est jobs =
    Analysis.estimate_shared_coin ~jobs ~crash:2 ~keyring:(Lazy.force keyring) ~n ~f:2
      ~trials:30 ~base_seed:77 ()
  in
  let reference = est 1 in
  Alcotest.(check int) "sane trial count" 30 reference.Analysis.trials;
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d byte-identical" jobs)
        true
        (est jobs = reference))
    [ 2; 4; 8 ]

let test_estimate_whp_coin_jobs () =
  let est jobs =
    Analysis.estimate_whp_coin ~jobs ~keyring:(Lazy.force keyring) ~params:(Lazy.force params)
      ~trials:12 ~base_seed:5 ()
  in
  Alcotest.(check bool) "jobs=3 byte-identical" true (est 3 = est 1)

let test_estimate_committees_jobs () =
  let est jobs =
    Analysis.estimate_committees ~jobs ~keyring:(Lazy.force keyring) ~params:(Lazy.force params)
      ~trials:200 ~base_seed:9 ()
  in
  Alcotest.(check bool) "jobs=4 byte-identical" true (est 4 = est 1)

let test_estimate_ba_jobs () =
  let est jobs =
    Analysis.estimate_ba ~jobs ~keyring:(Lazy.force keyring) ~params:(Lazy.force params)
      ~trials:8 ~base_seed:21 ()
  in
  let reference = est 1 in
  Alcotest.(check int) "sane trial count" 8 reference.Analysis.trials;
  Alcotest.(check bool) "jobs=4 byte-identical" true (est 4 = reference)

(* The adaptive adversary's per-send hook keeps its own set of crashed
   senders per engine; a trial must see the same crashes and cut the same
   broadcasts whichever worker runs it. *)
let test_estimate_ba_adaptive_jobs () =
  let p = Lazy.force params in
  let est ?(corruption = Runner.Crash_adaptive_first p.Params.f) jobs =
    Analysis.estimate_ba ~jobs ~corruption ~keyring:(Lazy.force keyring) ~params:p ~trials:8
      ~base_seed:33 ()
  in
  let reference = est 1 in
  Alcotest.(check bool) "some adaptive trial completes" true (reference.Analysis.complete > 0);
  Alcotest.(check bool) "crashes cut words" true
    (reference.Analysis.words.Stats.mean < (est ~corruption:Runner.Honest 1).Analysis.words.Stats.mean);
  Alcotest.(check bool) "jobs=4 byte-identical" true (est 4 = reference)

(* The tentpole determinism claim for sharded metrics: the merged
   registry serialises byte-identically at any worker count, because
   trials are index-sharded and campaign observations are integer-valued
   floats (exact addition in any grouping). *)
let test_sharded_metrics_jobs_invariant () =
  (* A private keyring per jobs value: at jobs=1 the estimator uses the
     caller's keyring directly (warming its verify memo), at jobs>1 cold
     clones — so the cache-delta counters only match across jobs when
     every campaign starts from an equally cold memo. *)
  let campaign jobs =
    let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"sharded-test" () in
    let obs = Analysis.campaign_obs ~jobs () in
    let (_ : Analysis.ba_estimate) =
      Analysis.estimate_ba ~jobs ~obs ~keyring:kr ~params:(Lazy.force params) ~trials:8
        ~base_seed:21 ()
    in
    Obs.Json.to_string (Obs.Metrics.to_json (Obs.Metrics.Sharded.merged obs.Analysis.obs_metrics))
  in
  let reference = campaign 1 in
  Alcotest.(check bool) "campaign recorded something" true
    (String.length reference > String.length "{}");
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d merged metrics byte-identical" jobs)
        reference (campaign jobs))
    [ 2; 4 ]

let test_trials_rejected () =
  List.iter
    (fun trials ->
      Alcotest.check_raises
        (Printf.sprintf "trials=%d rejected" trials)
        (Invalid_argument "Analysis: trials must be positive")
        (fun () ->
          ignore
            (Analysis.estimate_shared_coin ~keyring:(Lazy.force keyring) ~n ~f:2 ~trials
               ~base_seed:0 ())))
    [ 0; -3 ]

(* --------------------------- keyring clone --------------------------- *)

let test_clone_identical () =
  let kr = Lazy.force keyring in
  let cl = Vrf.Keyring.clone kr in
  for i = 0 to n - 1 do
    Alcotest.(check string)
      (Printf.sprintf "fingerprint %d" i)
      (Vrf.Keyring.public_fingerprint kr i)
      (Vrf.Keyring.public_fingerprint cl i);
    let a = Vrf.Keyring.prove kr i "clone-alpha" in
    let b = Vrf.Keyring.prove cl i "clone-alpha" in
    Alcotest.(check string) "beta" a.Vrf.beta b.Vrf.beta;
    Alcotest.(check string) "proof" a.Vrf.proof b.Vrf.proof;
    Alcotest.(check bool) "cross-verify" true
      (Vrf.Keyring.verify cl ~signer:i "clone-alpha" a)
  done

(* ------------------------- verification memo ------------------------- *)

let tamper s =
  let b = Bytes.of_string s in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  Bytes.to_string b

(* Cached and uncached keyrings must agree on every verification verdict;
   the bound is 5 so the 3*8 distinct certificates force eviction. *)
let test_cache_differential () =
  List.iter
    (fun backend ->
      let mk bound = Vrf.Keyring.create ~backend ~cache_bound:bound ~n:4 ~seed:"memo-diff" () in
      let cached = mk 5 and uncached = mk 0 in
      for s = 0 to 3 do
        for m = 0 to 7 do
          let alpha = Printf.sprintf "m-%d" m in
          let out = Vrf.Keyring.prove cached s alpha in
          let agree label expected =
            Alcotest.(check bool)
              (Printf.sprintf "%s s=%d m=%d" label s m)
              expected
          in
          agree "valid/cached" true (Vrf.Keyring.verify cached ~signer:s alpha out);
          agree "valid/uncached" true (Vrf.Keyring.verify uncached ~signer:s alpha out);
          (* verify twice: the second cached call is a hit and must not flip *)
          agree "valid/cached-hit" true (Vrf.Keyring.verify cached ~signer:s alpha out);
          let forged = { out with Vrf.proof = tamper out.Vrf.proof } in
          agree "tampered/cached" false (Vrf.Keyring.verify cached ~signer:s alpha forged);
          agree "tampered/uncached" false (Vrf.Keyring.verify uncached ~signer:s alpha forged);
          let wrong = (s + 1) mod 4 in
          agree "wrong-signer/cached" false (Vrf.Keyring.verify cached ~signer:wrong alpha out);
          agree "wrong-signer/uncached" false
            (Vrf.Keyring.verify uncached ~signer:wrong alpha out)
        done
      done;
      let stats = Vrf.Keyring.verify_cache_stats cached in
      Alcotest.(check bool) "eviction kept the bound" true (stats.Vrf.Keyring.size <= 5);
      Alcotest.(check bool) "hits observed" true (stats.Vrf.Keyring.hits > 0);
      let ustats = Vrf.Keyring.verify_cache_stats uncached in
      Alcotest.(check int) "bound 0 caches nothing" 0 ustats.Vrf.Keyring.size)
    [ Vrf.Mock; Vrf.Rsa_fdh { bits = 256 } ]

let test_cache_signature_differential () =
  let mk bound = Vrf.Keyring.create ~backend:Vrf.Mock ~cache_bound:bound ~n:4 ~seed:"memo-sig" () in
  let cached = mk 8 and uncached = mk 0 in
  for s = 0 to 3 do
    let msg = Printf.sprintf "msg-%d" s in
    let sig_ = Vrf.Keyring.sign cached s msg in
    Alcotest.(check bool) "valid sig cached" true (Vrf.Keyring.verify_sig cached ~signer:s msg sig_);
    Alcotest.(check bool) "valid sig uncached" true
      (Vrf.Keyring.verify_sig uncached ~signer:s msg sig_);
    Alcotest.(check bool) "tampered sig cached" false
      (Vrf.Keyring.verify_sig cached ~signer:s msg (tamper sig_));
    Alcotest.(check bool) "tampered sig uncached" false
      (Vrf.Keyring.verify_sig uncached ~signer:s msg (tamper sig_))
  done

let test_cache_eviction_fifo () =
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~cache_bound:4 ~n:1 ~seed:"memo-fifo" () in
  let outs = List.init 6 (fun m -> (m, Vrf.Keyring.prove kr 0 (Printf.sprintf "a-%d" m))) in
  List.iter
    (fun (m, out) ->
      Alcotest.(check bool) "fills" true (Vrf.Keyring.verify kr ~signer:0 (Printf.sprintf "a-%d" m) out))
    outs;
  let s0 = Vrf.Keyring.verify_cache_stats kr in
  Alcotest.(check int) "size at bound" 4 s0.Vrf.Keyring.size;
  Alcotest.(check int) "six misses" 6 s0.Vrf.Keyring.misses;
  (* newest entry is live: re-verifying is a hit *)
  ignore (Vrf.Keyring.verify kr ~signer:0 "a-5" (List.assoc 5 outs));
  let s1 = Vrf.Keyring.verify_cache_stats kr in
  Alcotest.(check int) "hit on live entry" (s0.Vrf.Keyring.hits + 1) s1.Vrf.Keyring.hits;
  (* oldest entry was evicted: re-verifying misses, and still answers true *)
  Alcotest.(check bool) "evicted entry still verifies" true
    (Vrf.Keyring.verify kr ~signer:0 "a-0" (List.assoc 0 outs));
  let s2 = Vrf.Keyring.verify_cache_stats kr in
  Alcotest.(check int) "miss on evicted entry" (s1.Vrf.Keyring.misses + 1) s2.Vrf.Keyring.misses;
  Alcotest.(check int) "size still at bound" 4 s2.Vrf.Keyring.size

let test_cache_bound_validated () =
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Keyring.create: cache_bound must be >= 0") (fun () ->
      ignore (Vrf.Keyring.create ~cache_bound:(-1) ~n:2 ~seed:"x" ()))

let suite =
  [
    Alcotest.test_case "map ordered at any jobs" `Quick test_map_ordered;
    Alcotest.test_case "one ctx per worker" `Quick test_map_ctx_per_worker;
    Alcotest.test_case "map edge cases" `Quick test_map_edges;
    Alcotest.test_case "exception propagation deterministic" `Quick test_exception_propagation;
    Alcotest.test_case "shared-coin estimator jobs-invariant" `Quick
      test_estimate_shared_coin_jobs;
    Alcotest.test_case "whp-coin estimator jobs-invariant" `Quick test_estimate_whp_coin_jobs;
    Alcotest.test_case "committee estimator jobs-invariant" `Quick test_estimate_committees_jobs;
    Alcotest.test_case "ba estimator jobs-invariant" `Quick test_estimate_ba_jobs;
    Alcotest.test_case "sharded metrics merge jobs-invariant" `Quick
      test_sharded_metrics_jobs_invariant;
    Alcotest.test_case "adaptive ba estimator jobs-invariant" `Quick
      test_estimate_ba_adaptive_jobs;
    Alcotest.test_case "trials <= 0 rejected" `Quick test_trials_rejected;
    Alcotest.test_case "keyring clone observationally identical" `Quick test_clone_identical;
    Alcotest.test_case "verify memo differential (vrf)" `Quick test_cache_differential;
    Alcotest.test_case "verify memo differential (signatures)" `Quick
      test_cache_signature_differential;
    Alcotest.test_case "verify memo FIFO eviction" `Quick test_cache_eviction_fifo;
    Alcotest.test_case "cache bound validated" `Quick test_cache_bound_validated;
  ]
