(* The benchmark's workloads: one fixed system configuration each, one
   key directory each, and a seed-determined sequence of BA instances.

   Every workload stresses a different layer (README.md has the layer ->
   metric -> workload table): mock-n256 the protocol step functions and
   the engine, rsa-n64-crash the RSA kernel, dleq-n64-adaptive the DLEQ
   kernel and the per-envelope adaptive-corruption path, and
   mock-n128-observed the observation path.  Lambda is set so that no
   instance misses a decision at any seed: either lambda = n, where every
   committee is the whole system, or the mean committee size sits at
   least 5.9 standard deviations above the wait threshold W. *)

type fault = No_fault | Crash_random | Crash_adaptive_first

type t = {
  name : string;
  backend : Vrf.backend;
  n : int;
  lambda : int;
  fault : fault;
  observed : bool;
      (* metrics registry, event trace and word ledger attached, and their
         documents rendered, inside every timed instance *)
  setup_reps : int;
      (* fresh key directories timed for setup_s before each pass: several
         for a mock set-up of about 1 ms, whose single timings spread some
         25 %; one for a keygen of 0.3-0.7 s *)
}

let all =
  [
    {
      name = "mock-n256";
      backend = Vrf.Mock;
      n = 256;
      lambda = 192;
      fault = No_fault;
      observed = false;
      setup_reps = 8;
    };
    {
      name = "rsa-n64-crash";
      backend = Vrf.Rsa_fdh { bits = 512 };
      n = 64;
      lambda = 64;
      fault = Crash_random;
      observed = false;
      setup_reps = 1;
    };
    {
      name = "dleq-n64-adaptive";
      backend = Vrf.Dleq { qbits = 160 };
      n = 64;
      lambda = 64;
      fault = Crash_adaptive_first;
      observed = false;
      setup_reps = 1;
    };
    {
      name = "mock-n128-observed";
      backend = Vrf.Mock;
      n = 128;
      lambda = 112;
      fault = No_fault;
      observed = true;
      setup_reps = 8;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The same configuration at a smaller size, lambda = n (the runtest
   harness check). *)
let scaled ~n w = { w with n; lambda = n }

let params w = Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:w.lambda ~n:w.n ()

let backend_name w =
  match w.backend with
  | Vrf.Mock -> "mock"
  | Vrf.Rsa_fdh { bits } -> Printf.sprintf "rsa-fdh-%d" bits
  | Vrf.Dleq { qbits } -> Printf.sprintf "dleq-%d" qbits

let fault_name w =
  match w.fault with
  | No_fault -> "honest"
  | Crash_random -> "crash-random"
  | Crash_adaptive_first -> "crash-adaptive-first"

let corruption w (params : Core.Params.t) =
  match w.fault with
  | No_fault -> Core.Runner.Honest
  | Crash_random -> Core.Runner.Crash_random params.Core.Params.f
  | Crash_adaptive_first -> Core.Runner.Crash_adaptive_first params.Core.Params.f

(* The key directory is part of the system under test, like n: fixed
   per workload, so set-up does the same work at every seed (a DLEQ
   group's prime search alone varies tenfold from one seed to the
   next).  [--seed] drives the instances. *)
let keyring ?cache_bound w =
  Vrf.Keyring.create ~backend:w.backend ?cache_bound ~n:w.n ~seed:("e2e/" ^ w.name) ()

(* Instance [i] (0 is the discarded warm-up) runs on engine seed
   [seed * 1000 + i]; that seed also names the instance, so no two
   instances share a VRF input and none is served from the keyring's
   prove cache.  Inputs are unanimous, alternating between instances:
   every instance then decides in round 1, so its wall time is not a
   mixture of 1- and 2-round runs whose proportions would move the
   percentiles from seed to seed. *)
let instance_seed ~seed i = (seed * 1000) + i
let inputs w i = Array.make w.n (i mod 2)
let scheduler () = Sim.Scheduler.random ~mean:1.0 ()

(* The observers a user attaches with [ba --emit-metrics --emit-events]
   plus the [complexity] ledger; [export] renders what those commands
   write, into memory. *)
type observers = { metrics : Obs.Metrics.t; trace : Sim.Trace.t; ledger : Sim.Ledger.t }

let observers () =
  { metrics = Obs.Metrics.create (); trace = Sim.Trace.create (); ledger = Sim.Ledger.create () }

let attach obs eng =
  Core.Instrument.attach_ba eng ~metrics:obs.metrics;
  Sim.Trace.attach obs.trace eng;
  Core.Instrument.attach_ba_ledger eng obs.ledger

let export obs ~params outcome =
  let buf = Buffer.create 65536 in
  Obs.Json.to_buffer buf
    (Core.Instrument.metrics_doc ~params ~outcomes:[ Core.Instrument.outcome_json outcome ]
       ~metrics:obs.metrics ());
  Buffer.add_char buf '\n';
  List.iter
    (fun ev ->
      Obs.Json.to_buffer buf ev;
      Buffer.add_char buf '\n')
    (Obs.Export.trace_jsonl obs.trace);
  Buffer.length buf
