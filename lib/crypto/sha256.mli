(** Pure-OCaml SHA-256 (FIPS 180-4).

    Provides both a one-shot and an incremental interface.  Validated in the
    test suite against the NIST example vectors and by property tests
    checking incremental/one-shot agreement on random splits. *)

type ctx
(** Incremental hashing state. *)

val init : unit -> ctx
(** Fresh state. *)

val update : ctx -> string -> unit
(** [update ctx s] absorbs [s]. *)

val update_bytes : ctx -> bytes -> int -> int -> unit
(** [update_bytes ctx b off len] absorbs a slice of [b]. *)

type midstate
(** The chaining value after a whole number of 64-byte blocks — what
    HMAC precomputes for its padded key blocks (RFC 2104 section 4).
    Immutable: every {!resume} starts from a copy. *)

val midstate : ctx -> midstate
(** Snapshot of [ctx], which must have absorbed a multiple of 64 bytes
    ([Invalid_argument] otherwise).  [ctx] stays usable. *)

val resume : midstate -> ctx
(** A fresh context that continues from the snapshot: absorbing [s] into
    [resume (midstate c)] hashes what absorbing [s] into [c] would. *)

val finalize : ctx -> string
(** [finalize ctx] returns the 32-byte digest.  The context must not be used
    afterwards. *)

val digest : string -> string
(** One-shot hash: 32-byte digest of the input. *)

val digest_list : string list -> string
(** Hash of the concatenation of the inputs (without building it). *)

val hex : string -> string
(** [hex s] is the digest of [s] rendered in lowercase hex. *)

val digest_size : int
(** 32. *)
