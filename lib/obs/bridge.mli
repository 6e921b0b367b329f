(** Wiring an {!Sim.Engine} into an {!Obs.Metrics} registry through the
    engine's compact send hook ({!Sim.Engine.on_send_meta}) and its
    deliver and corrupt hooks.

    The attachment is strictly passive.  It reads envelopes and engine
    state and changes neither, so for a fixed seed an execution is
    byte-identical with or without it (the property [test/t_obs.ml] pins
    down).

    Cost: the send-side series are recorded once per meta call, that is
    once per broadcast (twice under an adaptive send hook), adding
    [count] messages and [count * words] words.  Every series is resolved into a
    {!Metrics.counter} or {!Metrics.histo} handle once: per tag on the
    tag's first appearance, per pid and per round on first use, and the
    tagless series at attachment.  Recording a delivery is then a tag
    lookup ({!Sim.Intern}, the ledger's interner: physical equality
    first) and five plain updates, with no label sorting, rendering or
    hashing, and it allocates nothing: the virtual-time latency is
    taken between the two stored times inside {!Metrics.record_diff}.  A series still appears in the registry only once it is
    recorded into, as before.

    Counter series written ([class] is ["correct"] or ["byz"] at send
    time; [tag] comes from the protocol's [tag_of_msg]):
    - [sent_msgs{tag,class}], [sent_words{tag,class}]
    - [round_msgs{round}], [round_words{round}] (when [round_of] is given;
      the round is clamped with {!Sim.Ledger.clamp_round}, so at most
      [Sim.Ledger.round_ceiling + 1] round series exist whatever rounds
      the messages name)
    - [proc_sent_msgs{pid}], [proc_sent_words{pid}] (per-process tallies)
    - [delivered_msgs{tag}], [delivered_to_faulty], [corruptions]

    Histogram series:
    - [words_per_msg{tag}]
    - [delivery_latency_steps], [delivery_latency_vtime]
    - [causal_depth] (depth of each delivered envelope) *)

val attach :
  'm Sim.Engine.t ->
  metrics:Metrics.t ->
  ?tag_of:('m -> string) ->
  ?round_of:('m -> int option) ->
  unit ->
  unit
