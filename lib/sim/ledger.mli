(** Word-complexity ledger: the per-(phase, round, sender class) breakdown
    behind the paper's headline claim.

    {!Sim.Metrics} answers "how many correct words did this run cost in
    total"; the ledger answers {e where} they went — which protocol phase
    (message tag), which round, and whether a correct or a Byzantine
    process paid them.  That breakdown is what the E2 crossover evidence
    needs: the paper's word complexity Õ(n) vs the Θ(n²) baselines is a
    {e per-round} statement, and a flat aggregate cannot distinguish "few
    expensive rounds" from "many cheap ones".

    The accumulator is a flat int array (phase-major, rounds doubling),
    so recording a message is a handful of array stores with no
    allocation and no hashing — cheap enough to leave attached in the
    n >= 1e5 simulator the ROADMAP targets.  Its size is bounded whatever
    the messages say: rounds are clamped into [0, {!round_ceiling}]
    before they pick a row, so at most [round_ceiling + 1] rows per phase
    exist, and a forged round number (a Byzantine sender chooses it) can
    neither hang the table's growth nor exhaust memory.  Several runs may
    share one ledger ({!attach} it to successive engines) to aggregate a
    campaign.

    Like {!Obs.Bridge}, attachment is passive: recording reads the
    engine's observer stream and never touches RNG or scheduling, so a
    fixed-seed run is byte-identical with the ledger on or off. *)

type t

type cell = {
  correct_msgs : int;   (** messages sent by correct processes. *)
  correct_words : int;  (** their word cost — the paper's §2 metric. *)
  byz_msgs : int;       (** messages sent by Byzantine processes. *)
  byz_words : int;
  delivered : int;      (** deliveries (to any destination). *)
}

val zero_cell : cell
val add_cell : cell -> cell -> cell
val is_zero_cell : cell -> bool

val create : unit -> t

val round_ceiling : int
(** The last row, 1024: rounds above it are booked there.  Committed runs
    decide within a handful of rounds, far below it. *)

val clamp_round : int -> int
(** The row a round is booked into: negative rounds clamp to 0 and
    rounds above {!round_ceiling} to the ceiling.  [Obs.Bridge] labels
    its [round] series with the same clamp. *)

val record_send : t -> phase:string -> round:int -> correct:bool -> words:int -> unit
(** Account one sent message in row [clamp_round round] (protocols
    without a round structure pass 0 throughout).  Allocates nothing
    once the phase and the row exist. *)

val record_send_many :
  t -> phase:string -> round:int -> correct:bool -> words:int -> count:int -> unit
(** [count] messages of [words] words each in one accounting step — the
    broadcast fast path ([record_send] is the [count = 1] case, and
    [count = 0] is a complete no-op, phase interning included). *)

val record_delivery : t -> phase:string -> round:int -> unit
(** Account one delivery in row [clamp_round round]; allocates nothing
    once the phase and the row exist. *)

val attach :
  'm Engine.t -> t -> tag_of:('m -> string) -> ?round_of:('m -> int) -> unit -> unit
(** Subscribe the ledger to an engine's observer streams.  [tag_of]
    names the phase (the protocol's [tag_of_msg]); [round_of] (default:
    constant 0) extracts the round.  Sends are consumed through
    {!Engine.on_send_meta} — one call per logical broadcast (two under
    an adaptive send hook), with the sender class the engine judged at
    send time — so a broadcast costs the ledger one record, not [n]. *)

val phases : t -> string list
(** Phases in first-seen order. *)

val max_round : t -> int
(** Largest recorded round; [-1] while the ledger is empty. *)

val cell : t -> phase:string -> round:int -> cell
(** [zero_cell] for never-recorded coordinates.  [round] names a row:
    what was recorded above the ceiling is read at [round_ceiling]. *)

val round_total : t -> int -> cell
(** Sum over phases of one round. *)

val total : t -> cell
(** Grand total.  [total] of a ledger attached to one engine matches that
    engine's {!Metrics} counters (correct/byz words and messages,
    deliveries) — tested in [test/t_ledger.ml]. *)

val fold :
  t -> init:'a -> f:('a -> phase:string -> round:int -> cell -> 'a) -> 'a
(** Iterate non-zero cells, rounds ascending and phases in first-seen
    order within a round — a deterministic order, like every exporter
    upstream of it. *)

val reset : t -> unit
(** Zero every cell (interned phases are kept). *)
