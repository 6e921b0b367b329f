(** A zero-dependency JSON value type with a compact emitter and a strict
    parser.

    The emitter always produces a single line (no embedded newlines), so a
    value per [to_string] call is directly usable as a JSONL record.
    Non-finite floats have no JSON representation and are emitted as
    [null]; finite floats round-trip exactly through [of_string].  Object
    member order is preserved as constructed — exporters that need
    deterministic output should build members in a fixed order. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
(** Appends the value's rendering.  Nothing is allocated but the
    buffer's own growth, and the text of a [Float]. *)

val to_string : t -> string

val to_channel : out_channel -> t -> unit
(** Renders into a buffer and writes that, with no intermediate string. *)

val of_string : string -> (t, string) result
(** Strict parse of exactly one JSON value (trailing whitespace allowed).
    Numbers without [.], [e] or [E] parse as [Int] when they fit, [Float]
    otherwise.  [Error] carries a position-annotated message. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse failure. *)

(** {1 Accessors} — shallow, [None]/[[]] on shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]. *)

val to_int_opt : t -> int option
(** [Int] directly; integral [Float] values convert. *)

val to_float_opt : t -> float option
val to_string_opt : t -> string option
val to_list : t -> t list
(** Elements of a [List], [[]] otherwise. *)
