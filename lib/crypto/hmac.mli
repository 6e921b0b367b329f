(** HMAC-SHA-256 (RFC 2104 / FIPS 198-1). *)

type key
(** A key prepared as the SHA-256 chaining values after its inner and
    outer padded blocks (RFC 2104 section 4).  Immutable: every tag starts
    from a copy, so one key serves any number of tags. *)

val key : string -> key
(** [key raw] pads [raw] (hashing it first when longer than a block) and
    absorbs both padded blocks: two compressions, paid once per key. *)

val mac : key -> string -> string
(** [mac k msg] is the 32-byte tag; it equals [sha256 ~key:raw msg] for
    [k = key raw]. *)

val mac_list : key -> string list -> string
(** Tag over the concatenation of the message parts. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is the 32-byte HMAC tag: [mac (key raw) msg]. *)

val sha256_list : key:string -> string list -> string
(** HMAC over the concatenation of the message parts. *)

val equal : string -> string -> bool
(** Constant-time comparison of equal-length tags (returns [false] on length
    mismatch without leaking a timing difference on the contents). *)
