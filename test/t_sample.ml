(* Validated committee sampling: correctness of certificates, inclusion
   probability, unforgeability, and the paper's S1-S6 properties measured
   empirically at a fixed n. *)

open Core

let keyring = lazy (Vrf.Keyring.create ~backend:Vrf.Mock ~n:200 ~seed:"sample-test" ())

let test_sample_verifies () =
  let kr = Lazy.force keyring in
  for pid = 0 to 20 do
    let c = Sample.sample kr ~pid ~s:"committee-a" ~lambda:40 in
    if c.Sample.member then
      Alcotest.(check bool)
        (Printf.sprintf "member %d cert validates" pid)
        true
        (Sample.committee_val kr ~s:"committee-a" ~lambda:40 ~pid c)
  done

let test_nonmember_cert_rejected () =
  let kr = Lazy.force keyring in
  (* A non-member cannot claim membership by flipping the flag. *)
  let rec find_nonmember pid =
    let c = Sample.sample kr ~pid ~s:"committee-b" ~lambda:10 in
    if c.Sample.member then find_nonmember (pid + 1) else (pid, c)
  in
  let pid, c = find_nonmember 0 in
  let forged = { c with Sample.member = true } in
  Alcotest.(check bool) "forged membership rejected" false
    (Sample.committee_val kr ~s:"committee-b" ~lambda:10 ~pid forged)

let test_pid_out_of_range () =
  (* A Byzantine message may name a pid that is no process: committee-val
     rejects it (rather than asking the keyring for a key it does not
     have), and the directory gives it no rank. *)
  let kr = Lazy.force keyring in
  let n = Vrf.Keyring.n kr in
  let s = "committee-oor" in
  let member = List.hd (Sample.committee kr ~s ~lambda:40) in
  let cert = Sample.sample kr ~pid:member ~s ~lambda:40 in
  let comm = Sample.Directory.committee (Sample.Directory.create kr ~lambda:40) ~s in
  List.iter
    (fun pid ->
      Alcotest.(check bool) (Printf.sprintf "pid %d rejected" pid) false
        (Sample.committee_val kr ~s ~lambda:40 ~pid cert);
      Alcotest.(check int) (Printf.sprintf "pid %d has no rank" pid) (-1)
        (Sample.Directory.rank comm pid))
    [ n; -1; max_int; min_int ]

let test_cert_not_transferable () =
  let kr = Lazy.force keyring in
  (* A member's certificate must not validate for another pid. *)
  let rec find_member pid =
    let c = Sample.sample kr ~pid ~s:"committee-c" ~lambda:100 in
    if c.Sample.member then (pid, c) else find_member (pid + 1)
  in
  let pid, c = find_member 0 in
  let other = (pid + 1) mod 200 in
  Alcotest.(check bool) "stolen cert rejected" false
    (Sample.committee_val kr ~s:"committee-c" ~lambda:100 ~pid:other c)

let test_cert_not_reusable_across_strings () =
  let kr = Lazy.force keyring in
  let rec find_member pid =
    let c = Sample.sample kr ~pid ~s:"committee-d" ~lambda:100 in
    if c.Sample.member then (pid, c) else find_member (pid + 1)
  in
  let pid, c = find_member 0 in
  Alcotest.(check bool) "cert bound to its string" false
    (Sample.committee_val kr ~s:"committee-e" ~lambda:100 ~pid c)

let test_deterministic () =
  let kr = Lazy.force keyring in
  let a = Sample.sample kr ~pid:5 ~s:"det" ~lambda:40 in
  let b = Sample.sample kr ~pid:5 ~s:"det" ~lambda:40 in
  Alcotest.(check bool) "same membership" a.Sample.member b.Sample.member

let test_threshold_extremes () =
  Alcotest.(check int64) "lambda=n is everything" (Int64.shift_left 1L 52)
    (Sample.threshold ~n:100 ~lambda:100);
  Alcotest.(check int64) "lambda=0 is nothing" 0L (Sample.threshold ~n:100 ~lambda:0)

let test_lambda_n_includes_all () =
  let kr = Lazy.force keyring in
  let com = Sample.committee kr ~s:"everyone" ~lambda:200 in
  Alcotest.(check int) "lambda = n selects all" 200 (List.length com)

let test_committee_matches_sample () =
  let kr = Lazy.force keyring in
  let com = Sample.committee kr ~s:"match" ~lambda:40 in
  List.iter
    (fun pid ->
      let c = Sample.sample kr ~pid ~s:"match" ~lambda:40 in
      Alcotest.(check bool) "listed member samples true" true c.Sample.member)
    com

let test_inclusion_probability () =
  (* Over many committee strings, each sampling event is Bernoulli(lambda/n):
     measure the average committee size. *)
  let kr = Lazy.force keyring in
  let lambda = 40 in
  let total = ref 0 in
  let trials = 60 in
  for i = 1 to trials do
    total := !total + List.length (Sample.committee kr ~s:(Printf.sprintf "prob-%d" i) ~lambda)
  done;
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "mean committee size %.1f close to lambda" mean)
    true
    (mean > 34.0 && mean < 46.0)

(* Empirical check of Claim 1 (S1-S4) at n = 200.  The claim's failure
   probabilities are Chernoff bounds of the form e^{-c lambda}: we check
   the measured frequency of each property against its own theoretical
   lower bound (which is weak at this size — that weakness is itself
   documented in EXPERIMENTS.md), and additionally that a larger slack d'
   gives the near-certain concentration the asymptotics promise. *)
let claim1_frequencies ~d ~lambda ~epsilon ~trials =
  let kr = Lazy.force keyring in
  let n = 200 in
  let f = int_of_float (float_of_int n *. ((1.0 /. 3.0) -. epsilon)) in
  let fl = float_of_int lambda in
  let w = int_of_float (Float.ceil (((2.0 /. 3.0) +. (3.0 *. d)) *. fl)) in
  let b = int_of_float (Float.floor (((1.0 /. 3.0) -. d) *. fl)) in
  let s1 = ref 0 and s2 = ref 0 and s3 = ref 0 and s4 = ref 0 in
  let rng = Crypto.Rng.create 77 in
  let byz = Crypto.Rng.sample_without_replacement rng f n in
  let is_byz pid = List.mem pid byz in
  for i = 1 to trials do
    let com = Sample.committee kr ~s:(Printf.sprintf "claim1-%d-%f" i d) ~lambda in
    let size = List.length com in
    let byz_count = List.length (List.filter is_byz com) in
    let correct_count = size - byz_count in
    if float_of_int size <= (1.0 +. d) *. fl then incr s1;
    if float_of_int size >= (1.0 -. d) *. fl then incr s2;
    if correct_count >= w then incr s3;
    if byz_count <= b then incr s4
  done;
  let frac x = float_of_int !x /. float_of_int trials in
  (frac s1, frac s2, frac s3, frac s4)

let test_claim1_vs_chernoff_bounds () =
  let lambda = Params.default_lambda ~n:200 in
  let d = 0.05 and epsilon = 0.25 in
  let fl = float_of_int lambda in
  let s1, s2, _, s4 = claim1_frequencies ~d ~lambda ~epsilon ~trials:300 in
  let slack = 0.08 (* sampling noise over 300 trials *) in
  (* Appendix A: P[S1 fails] <= e^{-d^2 lambda/(2+d)}; P[S2 fails] <=
     e^{-d^2 lambda/2}; P[S4 fails] <= e^{-c4 lambda}. *)
  let s1_bound = 1.0 -. exp (-.(d *. d) *. fl /. (2.0 +. d)) in
  let s2_bound = 1.0 -. exp (-.(d *. d) *. fl /. 2.0) in
  let c4 =
    let third = 1.0 /. 3.0 in
    ((epsilon -. d) ** 2.0 /. (third -. epsilon)) /. (2.0 +. ((epsilon -. d) /. (third -. epsilon)))
  in
  let s4_bound = 1.0 -. exp (-.c4 *. fl) in
  Alcotest.(check bool) (Printf.sprintf "S1 %.2f >= bound %.2f" s1 s1_bound) true (s1 >= s1_bound -. slack);
  Alcotest.(check bool) (Printf.sprintf "S2 %.2f >= bound %.2f" s2 s2_bound) true (s2 >= s2_bound -. slack);
  Alcotest.(check bool) (Printf.sprintf "S4 %.2f >= bound %.2f" s4 s4_bound) true (s4 >= s4_bound -. slack)

let test_claim1_concentrates_with_slack () =
  (* With a larger lambda and a mid-window d (note d must stay below 1/9
     or W would exceed the committee size), all four properties hold
     almost always, as they would for the paper's parameters at
     asymptotic n. *)
  let s1, s2, s3, s4 = claim1_frequencies ~d:0.065 ~lambda:150 ~epsilon:0.31 ~trials:200 in
  Alcotest.(check bool) (Printf.sprintf "S1 %.2f" s1) true (s1 > 0.88);
  Alcotest.(check bool) (Printf.sprintf "S2 %.2f" s2) true (s2 > 0.88);
  Alcotest.(check bool) (Printf.sprintf "S3 %.2f" s3) true (s3 > 0.90);
  Alcotest.(check bool) (Printf.sprintf "S4 %.2f" s4) true (s4 > 0.90)

let test_s5_s6_arithmetic () =
  (* S5/S6 are consequences of the W/B arithmetic given S1: check the
     worst-case overlap arithmetic directly for a strictly valid params. *)
  let p = Params.make_exn ~n:2000 () in
  let l = float_of_int p.Params.lambda in
  let max_committee = (1.0 +. p.Params.d) *. l in
  let w = float_of_int p.Params.w and b = float_of_int p.Params.b in
  (* Two W-sets inside a committee of size at most (1+d)λ overlap in at
     least 2W - (1+d)λ > B members (S5). *)
  Alcotest.(check bool) "S5: 2W - (1+d)λ > B" true ((2.0 *. w) -. max_committee > b);
  (* A (B+1)-set and a W-set must intersect (S6). *)
  Alcotest.(check bool) "S6: W + B + 1 > (1+d)λ" true (w +. b +. 1.0 > max_committee)

let test_cert_words () = Alcotest.(check int) "cert is 2 words" 2 Sample.cert_words

let qcheck_threshold_monotone =
  QCheck.Test.make ~name:"qcheck: inclusion threshold monotone in lambda" ~count:100
    QCheck.(pair (int_range 1 1000) (int_range 0 999))
    (fun (n, l) ->
      let l = min l n in
      let l2 = min (l + 1) n in
      Int64.compare (Sample.threshold ~n ~lambda:l) (Sample.threshold ~n ~lambda:l2) <= 0)

(* A run's memo holds one handle per phase string, shared by every
   instance of the run.  A handle asked for through the same memo by
   another directory shares that phase's verdict slots only if its
   committee has as many members: a slot is a committee rank, so a
   committee of another size would read another committee's verdicts. *)
let test_memo_one_handle_and_size_guard () =
  let kr = Lazy.force keyring in
  let memo = Sample.Memo.create () in
  let dir lambda = Sample.Directory.create kr ~lambda in
  let d40 = dir 40 in
  let a = Sample.Phase.create d40 memo ~s:"guard" in
  Alcotest.(check bool) "one handle per phase string" true
    (a == Sample.Phase.create d40 memo ~s:"guard");
  let same_size = Sample.Phase.create (dir 40) memo ~s:"guard" in
  Alcotest.(check bool) "another directory, same committee: shared slots" true
    (Sample.Phase.slots a == Sample.Phase.slots same_size);
  let other = Sample.Phase.create (dir 100) memo ~s:"guard" in
  Alcotest.check_raises "another committee size"
    (Invalid_argument "Sample.Phase: memo shared across different committees") (fun () ->
      ignore (Sample.Phase.size other : int))

let suite =
  [
    Alcotest.test_case "sample verifies" `Quick test_sample_verifies;
    Alcotest.test_case "forged membership rejected" `Quick test_nonmember_cert_rejected;
    Alcotest.test_case "cert not transferable" `Quick test_cert_not_transferable;
    Alcotest.test_case "cert bound to string" `Quick test_cert_not_reusable_across_strings;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "threshold extremes" `Quick test_threshold_extremes;
    Alcotest.test_case "lambda=n includes all" `Quick test_lambda_n_includes_all;
    Alcotest.test_case "committee matches sample" `Quick test_committee_matches_sample;
    Alcotest.test_case "inclusion probability" `Quick test_inclusion_probability;
    Alcotest.test_case "claim 1 vs chernoff bounds" `Slow test_claim1_vs_chernoff_bounds;
    Alcotest.test_case "claim 1 concentrates with slack" `Slow test_claim1_concentrates_with_slack;
    Alcotest.test_case "S5/S6 arithmetic" `Quick test_s5_s6_arithmetic;
    Alcotest.test_case "cert words" `Quick test_cert_words;
    QCheck_alcotest.to_alcotest qcheck_threshold_monotone;
    Alcotest.test_case "pid out of range" `Quick test_pid_out_of_range;
    Alcotest.test_case "memo: one handle per phase, size guard" `Quick
      test_memo_one_handle_and_size_guard;
  ]
