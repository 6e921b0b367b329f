(** Strings numbered in first-seen order: the phase tags of
    {!Ledger} and the per-tag series of [Obs.Bridge].

    Lookup is a linear scan that tries physical equality before
    [String.equal].  Protocol [tag_of_msg] functions return constant
    literals over a handful of tags, so the hot path is a pointer scan
    with no byte comparison, and neither lookup allocates once the
    string is present. *)

type t

val create : unit -> t

val find : t -> string -> int
(** The string's index, or [-1] when it was never interned (an option
    would allocate on every lookup). *)

val intern : t -> string -> int
(** The string's index, appending it as index [length t] when new. *)

val length : t -> int

val get : t -> int -> string
(** The string at an index below [length t]. *)
