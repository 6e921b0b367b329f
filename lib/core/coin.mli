(** The VRF-based asynchronous shared coin — Algorithm 1 of the paper.

    Two all-to-all phases.  Each process draws [v_i = VRF_i(r)], sends it
    in a FIRST message, adopts the minimum valid value received, and after
    [n - f] FIRSTs sends its current minimum in a SECOND message; after
    [n - f] SECONDs it outputs the least-significant bit of its minimum.
    Against a delayed-adaptive adversary the global minimum becomes common
    with constant probability (Lemma 4.4), giving success rate at least
    [(18 eps^2 + 24 eps - 1) / (6 (1 + 6 eps))] (Theorem 4.13).

    The module is a pure state machine (create/handle return actions);
    {!Runner} wires instances onto the simulator.  A {e value} carries its
    origin and the origin's VRF output, so any receiver can check
    [v = VRF_origin(r)] — Byzantine processes can neither invent values
    nor equivocate, exactly the property the paper gets from the VRF. *)

type value = { origin : int; out : Vrf.output }

val compare_value : value -> value -> int
(** Total order by beta (ties — identical betas — broken by origin;
    betas are 256-bit hashes so ties do not occur in practice). *)

type msg = First of value | Second of value

val words_of_msg : msg -> int
(** FIRST/SECOND = tag + origin id + VRF value + VRF proof = 4 words. *)

val tag_of_msg : msg -> string
(** Phase tag for metrics labelling: FIRST or SECOND. *)

val pp_msg : Format.formatter -> msg -> unit

type action =
  | Broadcast of msg
  | Return of int  (** the coin output bit; emitted exactly once. *)

type t

val create :
  keyring:Vrf.Keyring.t -> n:int -> f:int -> pid:int -> instance:string -> round:int -> t
(** A passive instance: no message has been sent yet. *)

val coin_alpha : instance:string -> round:int -> string
(** The VRF input every process of [instance] evaluates in [round]. *)

val start : t -> action list
(** Evaluate the VRF and broadcast FIRST (line 2-3).  Idempotent. *)

val handle : t -> src:int -> msg -> action list
(** Process a delivered message; invalid or duplicate-sender messages are
    ignored, per the paper ("its message would be ignored"). *)

val result : t -> int option

val current_min : t -> value option
(** Introspection for tests/analysis: the local minimum [v_i]. *)
