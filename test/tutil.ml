(* Shared helpers for the protocol test suites.

   The paper's lambda = 8 ln n is an asymptotic choice: at laptop-scale n
   the probability that a sampled committee has fewer than W correct
   members (the complement of Claim 1's S3) is a few percent per
   committee, which stalls liveness in a noticeable fraction of runs —
   see EXPERIMENTS.md.  Claim 1 holds for any lambda = const * ln n, so
   the correctness tests use a larger lambda (~15n/16) that gives
   concentration margins of >= 3.5 sigma, making every code path
   (sampling, certificates, W/B thresholds) deterministic-by-seed while
   exercising exactly the same logic.  Scaling behaviour at realistic
   lambda/n ratios is the benchmarks' job, not the unit tests'. *)

let robust_params n =
  Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.037
    ~lambda:(min n (max 4 (15 * n / 16)))
    ~n ()

(* The certificate with the first byte of its proof flipped: same claim,
   same beta, a proof that no longer verifies. *)
let forge_cert (c : Core.Sample.cert) =
  let proof = Bytes.of_string c.Core.Sample.vrf.Vrf.proof in
  Bytes.set proof 0 (Char.chr (Char.code (Bytes.get proof 0) lxor 1));
  { c with Core.Sample.vrf = { c.Core.Sample.vrf with Vrf.proof = Bytes.to_string proof } }

(* Words allocated so far, counted exactly.  On OCaml 5.1 the minor term
   of [Gc.counters] counts the words of the current minor heap at one
   eighth, so the difference of two readings was off by up to 7/8 of the
   minor heap; [Gc.minor_words] counts them in full.  Promoted words are
   in both the minor and the major term, so they are taken off once. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted
