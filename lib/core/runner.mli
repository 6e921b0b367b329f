(** Wiring protocol state machines onto the {!Sim.Engine}: key setup, fault
    injection, execution, and metric extraction.  This is the main
    user-facing entry point of the library — see [examples/] for usage. *)

type corruption =
  | Honest                      (** no corruption. *)
  | Crash_random of int         (** crash k random processes before the run. *)
  | Crash_adaptive_first of int (** adaptively crash the first k distinct senders. *)
  | Byz_silent_random of int
      (** Byzantine processes that simply never send (distinct from crash
          only in accounting: they still receive). *)
  | Custom of (Ba.msg Sim.Engine.t -> unit)
      (** arbitrary fault wiring; receives the engine before the run. *)

type outcome = {
  n : int;                       (** number of processes in the run. *)
  decisions : (int * int) list;  (** (pid, decision) for correct deciders. *)
  all_decided : bool;            (** every correct process decided. *)
  agreement : bool;              (** no two correct decisions differ. *)
  rounds : int;                  (** max decision round over correct processes. *)
  words : int;                   (** words sent by correct processes (paper metric). *)
  msgs : int;
  depth : int;                   (** max causal depth at stop (paper duration). *)
  vtime : float;                 (** virtual time at stop (async "time" under the scheduler's latency unit). *)
  steps : int;                   (** simulator deliveries. *)
  result : Sim.Engine.run_result;
}

val pp_outcome : Format.formatter -> outcome -> unit

val ba_instance_name : seed:int -> string
(** The instance tag a [run_ba] with this seed uses for all its committee
    sampling and signatures — needed by {!Attacks} strategies, which must
    target the same instance. *)

val run_ba :
  ?scheduler:Ba.msg Sim.Scheduler.t ->
  ?probe:(Ba.msg Sim.Engine.t -> unit) ->
  ?corruption:corruption ->
  ?max_steps:int ->
  keyring:Vrf.Keyring.t ->
  params:Params.t ->
  inputs:int array ->
  seed:int ->
  unit ->
  outcome
(** One Byzantine Agreement instance over [params.n] processes with the
    given binary inputs.  The run stops when every correct process has
    decided (the point up to which the paper's complexity is counted).
    [probe] is called with the engine before any corruption or send — the
    attachment point for observation-only instrumentation ({!Instrument},
    {!Sim.Trace}); a probed run is execution-identical to an unprobed
    one. *)

type coin_outcome = {
  outputs : (int * int) list;  (** (pid, coin bit) for correct processes. *)
  unanimous : int option;      (** the bit if all correct outputs agree. *)
  coin_words : int;
  coin_depth : int;
  coin_result : Sim.Engine.run_result;
}

val run_shared_coin :
  ?scheduler:Coin.msg Sim.Scheduler.t ->
  ?probe:(Coin.msg Sim.Engine.t -> unit) ->
  ?pre_corrupt:int list ->
  ?corrupt_engine:(Coin.msg Sim.Engine.t -> unit) ->
  keyring:Vrf.Keyring.t ->
  n:int ->
  f:int ->
  round:int ->
  seed:int ->
  unit ->
  coin_outcome
(** One instance of the full (Algorithm 1) shared coin.  [pre_corrupt]
    crashes processes before the run; [corrupt_engine] installs arbitrary
    adversarial wiring. *)

val run_whp_coin :
  ?scheduler:Whp_coin.msg Sim.Scheduler.t ->
  ?probe:(Whp_coin.msg Sim.Engine.t -> unit) ->
  ?pre_corrupt:int list ->
  ?corrupt_engine:(Whp_coin.msg Sim.Engine.t -> unit) ->
  keyring:Vrf.Keyring.t ->
  params:Params.t ->
  round:int ->
  seed:int ->
  unit ->
  coin_outcome
(** One instance of the committee-based (Algorithm 2) WHP coin. *)

type approver_outcome = {
  returned : (int * int list) list;  (** (pid, value set) for correct. *)
  approver_words : int;
  approver_result : Sim.Engine.run_result;
}

val run_approver :
  ?scheduler:Approver.msg Sim.Scheduler.t ->
  ?probe:(Approver.msg Sim.Engine.t -> unit) ->
  ?pre_corrupt:int list ->
  keyring:Vrf.Keyring.t ->
  params:Params.t ->
  inputs:int array ->
  seed:int ->
  unit ->
  approver_outcome
(** One approver instance with per-process inputs (use {!Approver.bot} for
    ⊥). *)
