(** Span/probe recording against a simulation clock.

    A span is a named interval with begin/end timestamps taken from a
    caller-supplied clock — typically an engine's (step, virtual time)
    pair — plus an optional process id and its nesting level.  Spans nest
    lexically through {!with_span} (or explicitly via {!begin_span} /
    {!end_span}); completed spans are retained in completion order and
    export directly to Chrome "X" (complete) trace events via
    {!Export.chrome_of_spans}.

    Recording is observation-only: it reads the clock, never the RNG. *)

type clock = { step : unit -> int; now : unit -> float }

val manual_clock : unit -> clock * (int -> float -> unit)
(** A clock driven by the returned setter.  A recorder kept after its
    run on this clock holds no reference to the run's engine; [ba]
    sets it from the engine when a trial starts and when it returns. *)

type span = {
  name : string;
  pid : int option;
  nest : int;  (** 0 for top-level spans. *)
  begin_step : int;
  end_step : int;
  begin_now : float;
  end_now : float;
}

type t

val create : clock -> t

val with_span : t -> ?pid:int -> string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a span; the span is closed (and recorded) even
    if the thunk raises. *)

val begin_span : t -> ?pid:int -> string -> unit
val end_span : t -> unit
(** Closes the innermost open span.  @raise Invalid_argument when no span
    is open. *)

val nesting : t -> int
(** Currently open spans. *)

val completed : t -> span list
(** Completed spans, in completion order. *)

val to_json : t -> Json.t
(** A list of span records (name, pid, nest, begin/end step and vtime). *)
