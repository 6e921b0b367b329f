(** Protocol parameters (paper §2 and §5.1).

    The paper's resilience and committee machinery is governed by:
    - [epsilon]: resilience slack; [f = floor((1/3 - epsilon) n)] with
      [max{3/(8 ln n), 0.109} + 1/(8 ln n) < epsilon < 1/3];
    - [lambda = 8 ln n]: expected committee size;
    - [d]: committee concentration slack with
      [max{1/lambda, 0.0362} < d < epsilon/3 - 1/(3 lambda)];
    - [w = ceil((2/3 + 3d) lambda)]: the wait threshold replacing [n - f];
    - [b = floor((1/3 - d) lambda)]: the per-committee Byzantine bound.

    [make] computes and validates a full parameter set; the [?strict:false]
    mode clamps infeasible small-n windows to their nearest feasible-ish
    values so that small smoke tests can still run, flagging the clamp. *)

type t = private {
  n : int;             (** number of processes. *)
  f : int;             (** tolerated corruptions. *)
  epsilon : float;
  d : float;
  lambda : int;        (** committee parameter (expected size). *)
  w : int;             (** wait threshold W. *)
  b : int;             (** committee Byzantine bound B. *)
  strictly_valid : bool;
      (** whether all the paper's constraints hold exactly. *)
}

val epsilon_window : n:int -> (float * float) option
(** Open interval of valid [epsilon] for this [n]; [None] if empty. *)

val d_window : epsilon:float -> lambda:int -> (float * float) option
(** Open interval of valid [d] given [epsilon] and [lambda]. *)

val default_lambda : n:int -> int
(** [round (8 ln n)], at least 1. *)

val practical_lambda : n:int -> int
(** [min n (max (8 ln n) (6.4 sqrt n))]: enough concentration margin
    (about 3 sigma for the W threshold) for runs to complete at finite n.
    The CLI's default lambda, and the one the experiments use wherever
    the point is not the paper's 8 ln n itself (EXPERIMENTS.md E2). *)

val make :
  ?epsilon:float -> ?d:float -> ?lambda:int -> ?strict:bool -> n:int -> unit ->
  (t, string) result
(** Missing [epsilon]/[d] default to the midpoint of their valid windows.
    With [~strict:true] (default) any constraint violation is an [Error];
    with [~strict:false] the values are clamped and
    [strictly_valid = false] records the compromise. *)

val make_exn : ?epsilon:float -> ?d:float -> ?lambda:int -> ?strict:bool -> n:int -> unit -> t

val quorum : t -> int
(** [n - f], the classical wait threshold used by the full (Algorithm 1)
    shared coin and the baselines. *)

val coin_success_bound : epsilon:float -> float
(** Lemma 4.8: [(18 eps^2 + 24 eps - 1) / (6 (1 + 6 eps))]. *)

val whp_coin_success_bound : d:float -> float
(** Lemma B.7: [(18 d^2 + 27 d - 1) / (3 (5+6d)(1-d)(1+9d))]. *)

val common_values_bound : t -> float
(** Lemma 4.2's lower bound on common values, [9 eps n / (1 + 6 eps)]. *)

val pp : Format.formatter -> t -> unit
