(** Active Byzantine strategies for Algorithm 4 runs.

    A corrupted process keeps its keys (the adversary "has full access to
    corrupted processes' private information"), so it can produce valid
    committee certificates and VRF values for itself — what it cannot do
    is forge anyone else's.  These strategies exercise exactly that
    boundary:

    - {!install_two_face}: the strongest generic equivocation available
      under a VRF.  The attacker runs {e two} honest Algorithm 4 state
      machines with opposite inputs and sends both message streams: it
      inits/echoes/oks both 0 and 1 wherever it legitimately sits on a
      committee.  (Its coin messages coincide in both runs — VRF
      uniqueness removes coin equivocation, as the paper notes.)

    - {!install_replay}: rebroadcasts every message it receives under its
      own identity; receivers must reject all of it because committee
      certificates and signatures are bound to the original sender.

    - {!coin_cheaters}: the content-adaptive adversary of the E7
      ablation, which Definition 2.1 forbids.  It is not wired into a
      run: it names the processes to crash before an Algorithm 1 coin
      starts.

    Used by the Byzantine test campaigns, the adversary example and
    [coincidence experiment e7]. *)

val install_two_face :
  Ba.msg Sim.Engine.t ->
  keyring:Vrf.Keyring.t ->
  params:Params.t ->
  instance:string ->
  pids:int list ->
  unit
(** Corrupt [pids] with the two-face strategy for the BA run named
    [instance] (see {!Runner.ba_instance_name}). *)

val install_replay : Ba.msg Sim.Engine.t -> pids:int list -> unit
(** Corrupt [pids] with the replay strategy. *)

val coin_cheaters : keyring:Vrf.Keyring.t -> f:int -> seed:int -> round:int -> int list
(** The processes to crash before the {!Runner.run_shared_coin} with
    this [seed] and [round] so that its coin comes up 1: the holders of
    the smallest VRF draws of that instance ({!Runner.coin_instance_name},
    {!Coin.coin_alpha}) whose LSB is 0, at most [f] of them, stopping at
    the first draw whose LSB is 1.  The coin then fails to come up 1 only
    when more than [f] LSB-0 draws precede the smallest LSB-1 one, with
    probability 2^-(f+1). *)
