(** Exporters: JSONL event streams and the Chrome [trace_event] format.

    {2 JSONL}

    One JSON value per line.  {!trace_jsonl} renders a {!Sim.Trace} ring
    buffer as self-describing records:
    [{"ev":"send","run":0,"step":s,"id":i,"src":a,"dst":b,"depth":d,"words":w}],
    [{"ev":"deliver",...}], [{"ev":"corrupt","run":0,"step":s,"pid":p}].

    {2 Chrome trace_event}

    {!write_chrome} wraps events in [{"traceEvents":[...]}] — the JSON
    object format understood by [chrome://tracing] and Perfetto.  Each
    message becomes a nestable async begin/end pair (["ph":"b"] at the
    send, ["ph":"e"] at the delivery, joined by [id]); corruptions become
    instant events; spans become ["ph":"X"] complete events.  Timestamps
    are engine steps (for trace events) or begin/end steps (for spans) —
    one "microsecond" per simulator step on the viewer's axis.  [pid]
    groups a run (trial), [tid] is the sending process. *)

val bench_schema : string
(** Schema tag ["coincidence.bench/1"] carried by the B1
    microbenchmark documents of [bench/main.exe --json]:
    [{"schema", "provenance", "rows": [{"table": "b1", "name",
    "ns_per_op"}]}].  [coincidence obs --load] accepts this schema
    alongside the metrics, ledger and counterexample ones. *)

val write_jsonl : out_channel -> Json.t list -> unit
(** Each value on its own line (the emitter never embeds newlines),
    rendered through one buffer that is written out every 64 KiB. *)

val jsonl_to_string : Json.t list -> string

(** {2 Trace records}

    Both trace exporters build each record once, in a single newest-first
    pass over the ring ({!Sim.Trace.fold_right}), so the list comes out
    oldest first with no [List.rev].  Records of one call share the
    members that recur: one [(key, Int v)] pair per key and value in
    [0, 4096) for [src], [dst], [depth], [words] and [pid] (Chrome:
    [tid], and the [args] of a broadcast's begin events), one
    [step]/[ts] member across consecutive records of one step, and one
    member per call for [ev], [run], [cat], [ph] and [pid].  A [Sent]
    record then allocates its object, its member list and its [id]
    member, about 30 words, and a [Delivered] one its [step] member
    too; the ring's fold adds the {!Sim.Trace.event} it passes.  [Json.t]
    is immutable, so no consumer can tell a shared member from a fresh
    one, and the rendered bytes are those of unshared records. *)

val trace_jsonl : ?run:int -> Sim.Trace.t -> Json.t list
(** Oldest first.  [run] (default 0) stamps every record so several
    trials can share one stream. *)

val chrome_of_trace : ?pid:int -> Sim.Trace.t -> Json.t list
(** [pid] (default 0) distinguishes trials in one trace file.  A
    message's ["msg s->d"] name is rendered by the emitter into a
    reused buffer, one string per event. *)

val chrome_of_spans : ?pid:int -> ?tid:int -> Span.t -> Json.t list
(** [tid] (when given) overrides the per-span process id as the track
    row — the hook for rendering each {!Exec} worker domain on its own
    track (pair it with {!chrome_thread_name}). *)

val chrome_process_name : pid:int -> string -> Json.t
(** A metadata event labelling trace process [pid] in the viewer. *)

val chrome_thread_name : pid:int -> tid:int -> string -> Json.t
(** A metadata event labelling track [tid] of process [pid] — e.g.
    ["worker 3"] for spans recorded inside an Exec worker domain. *)

val write_chrome : out_channel -> ((Json.t list -> unit) -> 'a) -> 'a
(** [write_chrome oc f] writes one Chrome trace document to [oc]: the
    [{"traceEvents":[...],"displayTimeUnit":"ms"}] wrapper and a newline,
    with every event [f] passes to the function it is given in between,
    in order.  Events are rendered through one buffer that is written out
    every 64 KiB, so a caller that passes each trial's events when the
    trial ends holds one trial's records at a time.  Every command that
    writes a Chrome trace writes it through here. *)

val chrome_to_string : Json.t list -> string
(** The document {!write_chrome} writes for [events], without the
    newline. *)

(** {2 Ledger documents} *)

val ledger_schema : string
(** Schema tag ["coincidence.ledger/1"] carried by the word-complexity
    sweep documents of [coincidence complexity]: [{"schema", ...,
    "sweep": [{"protocol", "n", "total": {cell}, "rounds": [{"round",
    cell fields, "phases": [{"phase", cell fields}]}]}]}] where a cell is
    the five non-negative counters of {!Sim.Ledger.cell}. *)

val validate_ledger : Json.t -> (int, string) result
(** Structural validation of a {!ledger_schema} document: schema name,
    every cell counter a non-negative integer, every entry's rounds
    strictly increasing.  [Ok] carries the number of sweep entries. *)
