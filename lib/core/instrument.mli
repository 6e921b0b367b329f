(** Protocol-aware observability attachments.

    {!attach_ba} wires an engine's observer hooks into an {!Obs.Metrics}
    registry with BA's own message tags ({!Ba.tag_of_msg}), so counters
    and histograms break down by phase (A1/A2/COIN sub-protocol,
    INIT/ECHO/OK/FIRST/SECOND kind) and by round.  Pass it as the
    [?probe] of {!Runner.run_ba}:

    {[
      let metrics = Obs.Metrics.create () in
      let o =
        Runner.run_ba
          ~probe:(fun eng -> Instrument.attach_ba eng ~metrics)
          ~keyring ~params ~inputs ~seed ()
      in
      ...
    ]}

    Attachment is observation-only: outcomes are byte-identical with and
    without it ([test/t_obs.ml] pins this down). *)

val attach_ba : Ba.msg Sim.Engine.t -> metrics:Obs.Metrics.t -> unit

(** {1 Word-complexity ledger}

    The {!Sim.Ledger} variant of {!attach_ba}: same tag functions, but
    feeding the flat (phase, round, sender-class) accumulator instead of
    the metrics registry — cheap enough to stay attached at the largest
    simulated [n].  Several engines may share one ledger to aggregate
    trials.  Other protocols attach {!Sim.Ledger.attach} or
    [Obs.Bridge.attach] with their own [tag_of] directly. *)

val attach_ba_ledger : Ba.msg Sim.Engine.t -> Sim.Ledger.t -> unit

val cell_json : Sim.Ledger.cell -> Obs.Json.t

val ledger_json :
  protocol:string -> n:int -> ?extra:(string * Obs.Json.t) list -> Sim.Ledger.t -> Obs.Json.t
(** One sweep entry of a {!Obs.Export.ledger_schema} document:
    [{"protocol", "n", extra..., "total": cell, "rounds": [{"round", cell
    fields, "phases": [{"phase", cell fields}]}]}], rounds ascending,
    zero cells skipped. *)

val ledger_doc : ?extra:(string * Obs.Json.t) list -> Obs.Json.t list -> Obs.Json.t
(** The [coincidence complexity --json] document: [{"schema", extra...,
    "sweep": entries}], validated by {!Obs.Export.validate_ledger}. *)

(** {1 Machine-readable run documents} *)

val metrics_schema : string
(** Identifier written to every metrics document, ["coincidence.metrics/1"]. *)

val params_json : Params.t -> Obs.Json.t
val outcome_json : Runner.outcome -> Obs.Json.t
val run_result_json : Sim.Engine.run_result -> Obs.Json.t

val metrics_doc :
  params:Params.t ->
  ?outcomes:Obs.Json.t list ->
  ?spans:Obs.Span.t list ->
  metrics:Obs.Metrics.t ->
  unit ->
  Obs.Json.t
(** The [--emit-metrics] document: [{"schema", "params", "runs",
    "metrics", "spans"}].  [spans] concatenates several recorders (one
    per trial).  See EXPERIMENTS.md for the field-by-field schema. *)
