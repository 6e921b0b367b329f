let perform eng pid actions =
  List.iter
    (function
      | Ba.Broadcast m -> Sim.Engine.broadcast eng ~src:pid ~words:(Ba.words_of_msg m) m
      | Ba.Decide _ -> ())
    actions

let install_two_face eng ~keyring ~params ~instance ~pids =
  List.iter
    (fun pid ->
      let zero = Ba.create ~keyring ~params ~pid ~instance () in
      let one = Ba.create ~keyring ~params ~pid ~instance () in
      Sim.Engine.corrupt_byzantine eng pid (fun e ->
          let src = e.Sim.Envelope.src in
          let m = e.Sim.Envelope.payload in
          perform eng pid (Ba.handle zero ~src m);
          perform eng pid (Ba.handle one ~src m));
      (* Both personalities start immediately with opposite proposals. *)
      perform eng pid (Ba.propose zero 0);
      perform eng pid (Ba.propose one 1))
    pids

let install_replay eng ~pids =
  List.iter
    (fun pid ->
      (* Budgeted, and only messages from processes that are still correct
         are replayed — otherwise two replayers amplify each other's
         copies without bound (even a real attacker has finite bandwidth). *)
      let budget = ref 2_000 in
      Sim.Engine.corrupt_byzantine eng pid (fun e ->
          if !budget > 0 && Sim.Engine.is_correct eng e.Sim.Envelope.src then begin
            decr budget;
            let m = e.Sim.Envelope.payload in
            Sim.Engine.broadcast eng ~src:pid ~words:(Ba.words_of_msg m) m
          end))
    pids

let coin_cheaters ~keyring ~f ~seed ~round =
  let alpha = Coin.coin_alpha ~instance:(Runner.coin_instance_name ~seed) ~round in
  let draws =
    List.init (Vrf.Keyring.n keyring) (fun pid ->
        (pid, (Vrf.Keyring.prove keyring pid alpha).Vrf.beta))
  in
  let rec pick acc = function
    | (pid, beta) :: rest when List.length acc < f && Int.equal (Vrf.beta_lsb beta) 0 ->
        pick (pid :: acc) rest
    | _ -> acc
  in
  pick [] (List.sort (fun (_, a) (_, b) -> Vrf.compare_beta a b) draws)
