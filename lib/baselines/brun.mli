(** Runners executing the baseline protocols on {!Sim.Engine}, producing
    outcomes in the same shape as {!Core.Runner} for Table 1 comparisons. *)

type outcome = {
  decisions : (int * int) list;
  all_decided : bool;
  agreement : bool;
  rounds : int;
  words : int;
  msgs : int;
  depth : int;
  steps : int;
  result : Sim.Engine.run_result;
}

val run_benor :
  ?scheduler:Benor.msg Sim.Scheduler.t -> ?pre_crash:int list -> ?max_steps:int ->
  ?probe:(Benor.msg Sim.Engine.t -> unit) ->
  n:int -> f:int -> inputs:int array -> seed:int -> unit -> outcome
(** [probe] (like {!Core.Runner}'s) sees the engine before any message is
    sent — the hook for attaching observers such as {!Sim.Ledger}. *)

val run_bracha :
  ?scheduler:Bracha.msg Sim.Scheduler.t -> ?pre_crash:int list -> ?max_steps:int ->
  ?probe:(Bracha.msg Sim.Engine.t -> unit) ->
  n:int -> f:int -> inputs:int array -> seed:int -> unit -> outcome

val run_rabin :
  ?scheduler:Rabin.msg Sim.Scheduler.t -> ?pre_crash:int list -> ?max_steps:int ->
  ?probe:(Rabin.msg Sim.Engine.t -> unit) ->
  n:int -> f:int -> inputs:int array -> seed:int -> unit -> outcome

val run_mmr :
  ?scheduler:Mmr.msg Sim.Scheduler.t -> ?pre_crash:int list -> ?max_steps:int ->
  ?probe:(Mmr.msg Sim.Engine.t -> unit) ->
  coin:Mmr.coin_mode -> n:int -> f:int -> inputs:int array -> seed:int -> unit -> outcome
