type coin_estimate = {
  trials : int;
  all_zero : int;
  all_one : int;
  disagree : int;
  success_rate : float;
  mean_words : float;
  mean_depth : float;
}

(* Every estimator fans its independent per-trial runs through the Exec
   domain pool.  Determinism across any [jobs] value rests on three
   pillars (argued in DESIGN.md "Parallel campaign harness"): trial [i]'s
   seed is a pure function of [base_seed + i]; each worker runs on its own
   [Vrf.Keyring.clone] (no shared caches, no shared Montgomery scratch);
   and Exec returns outcomes in ascending trial order, so the float folds
   below consume the exact sequence a sequential run produces. *)

let check_trials trials =
  if trials <= 0 then invalid_arg "Analysis: trials must be positive"

(* -------------------- campaign observability ------------------------- *)

type campaign_obs = {
  obs_metrics : Obs.Metrics.Sharded.t;
  obs_spans : Obs.Span.t array;  (* one recorder per worker slot *)
}

(* Spans recorded without a clock are still useful: the per-trial span
   stream carries names and pids (trial indices), and [campaign_obs] with
   an engine-free zero clock keeps the merged document jobs-invariant.
   Callers wanting wall-clock worker tracks pass their own clock. *)
let zero_clock = { Obs.Span.step = (fun () -> 0); now = (fun () -> 0.0) }

let campaign_obs ?(clock = zero_clock) ~jobs () =
  let workers = Exec.resolve_jobs jobs in
  {
    obs_metrics = Obs.Metrics.Sharded.create ~workers;
    obs_spans = Array.init workers (fun _ -> Obs.Span.create clock);
  }

(* Everything a worker domain may touch: its keyring and, when observed,
   its claimed metric shard plus its span recorder.  Trials receive the
   slot as their first argument and reach campaign state only through
   it. *)
type worker_slot = {
  slot_keyring : Vrf.Keyring.t;
  slot_obs : (Obs.Metrics.t * Obs.Span.t) option;
}

(* Per-trial recording wrapper.  Everything recorded is a pure function
   of the trial (integer-valued observations, per-trial cache deltas), so
   the merged registry is byte-identical at any jobs value: which worker
   records a trial changes only the shard it lands in, and shard merging
   is grouping-independent for integer data (DESIGN.md "Sharded
   metrics").  Cache hit/miss deltas are jobs-invariant because every VRF
   alpha embeds the per-trial instance string, making cache keys
   trial-unique: no trial's verdict about its own verifications depends
   on which clone ran the trials before it. *)
let observed ~slot ~kind ~trial ~record run =
  match slot.slot_obs with
  | None -> run ()
  | Some (shard, span) ->
      let keyring = slot.slot_keyring in
      let s0 = Vrf.Keyring.verify_cache_stats keyring in
      let result = Obs.Span.with_span span ~pid:trial (kind ^ "-trial") run in
      let s1 = Vrf.Keyring.verify_cache_stats keyring in
      let kl = [ ("kind", kind) ] in
      Obs.Metrics.incr shard ~labels:kl "trials";
      Obs.Metrics.incr shard
        ~by:(s1.Vrf.Keyring.hits - s0.Vrf.Keyring.hits)
        ~labels:kl "verify_cache_hits";
      Obs.Metrics.incr shard
        ~by:(s1.Vrf.Keyring.misses - s0.Vrf.Keyring.misses)
        ~labels:kl "verify_cache_misses";
      record shard result;
      result

(* The tree's one Exec.map call.  [ctx] runs once per worker, on that
   worker's domain, and builds its slot there: with one worker the
   caller's keyring is used directly (warming its caches, as the
   sequential estimators always did); otherwise every worker, slot 0
   included, works on its own clone, so no mutable key material is read
   on one domain while another writes its caches.  Shard claims are
   released once the pool has joined, even if a trial raised, so the
   same [campaign_obs] can aggregate several campaigns.  coinlint's
   domain-escape rule checks both closures handed to Exec here and the
   trial function of every call. *)
let campaign ?obs ~jobs ~keyring ~kind ~record trials trial =
  let run () =
    Exec.map ~jobs trials
      ~ctx:(fun w ->
        let slot_keyring =
          if Exec.resolve_jobs jobs <= 1 then keyring else Vrf.Keyring.clone keyring
        in
        let slot_obs =
          match obs with
          | Some o -> Some (Obs.Metrics.Sharded.claim o.obs_metrics w, o.obs_spans.(w))
          | None -> None
        in
        { slot_keyring; slot_obs })
      (fun slot i -> observed ~slot ~kind ~trial:i ~record (fun () -> trial slot i))
  in
  match obs with
  | None -> run ()
  | Some o -> Fun.protect ~finally:(fun () -> Obs.Metrics.Sharded.release_all o.obs_metrics) run

let record_coin_trial ~kind shard (o : Runner.coin_outcome) =
  let kl = [ ("kind", kind) ] in
  let outcome =
    match o.Runner.unanimous with Some 0 -> "zero" | Some 1 -> "one" | Some _ | None -> "split"
  in
  Obs.Metrics.incr shard ~labels:(("outcome", outcome) :: kl) "coin_outcome";
  Obs.Metrics.observe shard ~labels:kl "trial_words" (float_of_int o.Runner.coin_words);
  Obs.Metrics.observe shard ~labels:kl "trial_depth" (float_of_int o.Runner.coin_depth)

let coin_estimate_of ~trials outcomes =
  check_trials trials;
  let all_zero = ref 0 and all_one = ref 0 and disagree = ref 0 in
  let words = ref [] and depths = ref [] in
  List.iter
    (fun (o : Runner.coin_outcome) ->
      (match o.Runner.unanimous with
      | Some 0 -> incr all_zero
      | Some 1 -> incr all_one
      | Some _ | None -> incr disagree);
      words := float_of_int o.Runner.coin_words :: !words;
      depths := float_of_int o.Runner.coin_depth :: !depths)
    outcomes;
  let frac x = float_of_int x /. float_of_int trials in
  {
    trials;
    all_zero = !all_zero;
    all_one = !all_one;
    disagree = !disagree;
    success_rate = Float.min (frac !all_zero) (frac !all_one);
    mean_words = Stats.mean !words;
    mean_depth = Stats.mean !depths;
  }

let crash_set ~seed ~n ~crash =
  if crash = 0 then []
  else Crypto.Rng.sample_without_replacement (Crypto.Rng.create (seed lxor 0xc4a5)) crash n

let estimate_shared_coin ?scheduler ?(crash = 0) ?(jobs = 1) ?obs ~keyring ~n ~f ~trials
    ~base_seed () =
  check_trials trials;
  let outcomes =
    campaign ?obs ~jobs ~keyring ~kind:"coin" ~record:(record_coin_trial ~kind:"coin") trials
      (fun slot i ->
        let seed = base_seed + i in
        Runner.run_shared_coin ?scheduler ~pre_corrupt:(crash_set ~seed ~n ~crash)
          ~keyring:slot.slot_keyring ~n ~f ~round:i ~seed ())
  in
  coin_estimate_of ~trials outcomes

let estimate_whp_coin ?scheduler ?(crash = 0) ?(jobs = 1) ?obs ~keyring ~params ~trials
    ~base_seed () =
  check_trials trials;
  let n = params.Params.n in
  let outcomes =
    campaign ?obs ~jobs ~keyring ~kind:"whp-coin" ~record:(record_coin_trial ~kind:"whp-coin")
      trials (fun slot i ->
        let seed = base_seed + i in
        Runner.run_whp_coin ?scheduler ~pre_corrupt:(crash_set ~seed ~n ~crash)
          ~keyring:slot.slot_keyring ~params ~round:i ~seed ())
  in
  coin_estimate_of ~trials outcomes

type committee_estimate = {
  trials : int;
  s1 : float;
  s2 : float;
  s3 : float;
  s4 : float;
  mean_size : float;
}

let estimate_committees ?(jobs = 1) ?obs ~keyring ~params ~trials ~base_seed () =
  check_trials trials;
  let n = params.Params.n in
  let lambda = params.Params.lambda in
  let d = params.Params.d in
  let fl = float_of_int lambda in
  let rng = Crypto.Rng.create base_seed in
  let byz = Crypto.Rng.sample_without_replacement rng params.Params.f n in
  let is_byz pid = List.exists (Int.equal pid) byz in
  (* Per trial: committee size and its Byzantine-member count; the S1-S4
     threshold counting happens in the (ordered) sequential fold below. *)
  let samples =
    campaign ?obs ~jobs ~keyring ~kind:"committee"
      ~record:(fun shard (size, byz_count) ->
        let kl = [ ("kind", "committee") ] in
        Obs.Metrics.observe shard ~labels:kl "committee_size" (float_of_int size);
        Obs.Metrics.observe shard ~labels:kl "committee_byz" (float_of_int byz_count))
      trials
      (fun slot i ->
        let com =
          Sample.committee slot.slot_keyring ~s:(Printf.sprintf "est-%d-%d" base_seed (i + 1)) ~lambda
        in
        (List.length com, List.length (List.filter is_byz com)))
  in
  let s1 = ref 0 and s2 = ref 0 and s3 = ref 0 and s4 = ref 0 in
  let sizes = ref [] in
  List.iter
    (fun (size, byz_count) ->
      sizes := float_of_int size :: !sizes;
      if float_of_int size <= (1.0 +. d) *. fl then incr s1;
      if float_of_int size >= (1.0 -. d) *. fl then incr s2;
      if size - byz_count >= params.Params.w then incr s3;
      if byz_count <= params.Params.b then incr s4)
    samples;
  let frac x = float_of_int !x /. float_of_int trials in
  { trials; s1 = frac s1; s2 = frac s2; s3 = frac s3; s4 = frac s4; mean_size = Stats.mean !sizes }

type ba_estimate = {
  trials : int;
  safe : int;
  complete : int;
  rounds : Stats.summary;
  words : Stats.summary;
  depth : Stats.summary;
}

let estimate_ba ?scheduler ?(corruption = Runner.Honest) ?(mixed_inputs = true) ?(jobs = 1)
    ?obs ~keyring ~params ~trials ~base_seed () =
  check_trials trials;
  let n = params.Params.n in
  let record_ba shard ((o : Runner.outcome), _inputs) =
    let kl = [ ("kind", "ba") ] in
    if o.Runner.agreement then Obs.Metrics.incr shard ~labels:kl "ba_agreed";
    if o.Runner.all_decided then Obs.Metrics.incr shard ~labels:kl "ba_decided";
    Obs.Metrics.observe shard ~labels:kl "trial_words" (float_of_int o.Runner.words);
    Obs.Metrics.observe shard ~labels:kl "trial_rounds" (float_of_int o.Runner.rounds);
    Obs.Metrics.observe shard ~labels:kl "trial_depth" (float_of_int o.Runner.depth)
  in
  let outcomes =
    campaign ?obs ~jobs ~keyring ~kind:"ba" ~record:record_ba trials (fun slot i ->
        let seed = base_seed + i in
        let inputs =
          if mixed_inputs then Array.init n (fun p -> (p + i) mod 2) else Array.make n 1
        in
        (Runner.run_ba ?scheduler ~corruption ~keyring:slot.slot_keyring ~params ~inputs ~seed (), inputs))
  in
  let safe = ref 0 and complete = ref 0 in
  let rounds = ref [] and words = ref [] and depth = ref [] in
  List.iter
    (fun ((o : Runner.outcome), inputs) ->
      let validity_ok =
        match List.sort_uniq Int.compare (Array.to_list inputs) with
        | [ v ] -> List.for_all (fun (_, d) -> d = v) o.Runner.decisions
        | _ -> true
      in
      if o.Runner.agreement && validity_ok then incr safe;
      if o.Runner.all_decided then incr complete;
      rounds := o.Runner.rounds :: !rounds;
      words := o.Runner.words :: !words;
      depth := o.Runner.depth :: !depth)
    outcomes;
  {
    trials;
    safe = !safe;
    complete = !complete;
    rounds = Stats.summarize_ints !rounds;
    words = Stats.summarize_ints !words;
    depth = Stats.summarize_ints !depth;
  }

let pp_coin_estimate fmt (e : coin_estimate) =
  Format.fprintf fmt "@[<h>trials=%d all0=%d all1=%d split=%d rho=%.3f words=%.0f depth=%.1f@]"
    e.trials e.all_zero e.all_one e.disagree e.success_rate e.mean_words e.mean_depth

let pp_committee_estimate fmt (e : committee_estimate) =
  Format.fprintf fmt "@[<h>trials=%d S1=%.3f S2=%.3f S3=%.3f S4=%.3f size=%.1f@]" e.trials e.s1
    e.s2 e.s3 e.s4 e.mean_size

let pp_ba_estimate fmt (e : ba_estimate) =
  Format.fprintf fmt "@[<h>trials=%d safe=%d complete=%d rounds(%a) words(%a)@]" e.trials e.safe
    e.complete Stats.pp_summary e.rounds Stats.pp_summary e.words
