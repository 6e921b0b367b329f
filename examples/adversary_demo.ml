(* Adversary demo: Byzantine Agreement under hostile conditions.

   Run with:  dune exec examples/adversary_demo.exe [n]

   Runs the BA protocol against each built-in adversary (schedulers x
   corruption policies) and then demonstrates the E7 ablation: a
   model-violating content-adaptive adversary visibly biases the shared
   coin, showing why the delayed-adaptive restriction (Definition 2.1)
   is load-bearing. *)

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 32 in
  let keyring = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"adversary-demo" () in
  (* lambda = n: the demo is about adversaries, not committee sampling;
     full committees remove the (real, documented) finite-n committee-
     shortfall failure mode so every scenario terminates. *)
  let params = Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n () in
  Format.printf "parameters: %a@.@." Core.Params.pp params;
  let inputs = Array.init n (fun i -> i mod 2) in
  let f = params.Core.Params.f in

  let scenarios =
    [
      ("benign async (random delays)", None, Core.Runner.Honest);
      ("fifo (synchronous-looking)", Some (Sim.Scheduler.fifo ()), Core.Runner.Honest);
      ( "network split",
        Some (Sim.Scheduler.split ~group:(fun pid -> pid < n / 2) ~cross_delay:30.0 ()),
        Core.Runner.Honest );
      ( "targeted slowdown of 1/4",
        Some (Sim.Scheduler.targeted ~victims:(fun pid -> pid < n / 4) ~factor:50.0 ()),
        Core.Runner.Honest );
      ("f random crashes", None, Core.Runner.Crash_random f);
      ("f adaptive crashes (first senders)", None, Core.Runner.Crash_adaptive_first f);
      ("f silent byzantine", None, Core.Runner.Byz_silent_random f);
      ( "f two-face equivocators",
        None,
        Core.Runner.Custom
          (fun eng ->
            let victims = List.init f (fun i -> i * (n / max 1 f)) in
            Core.Attacks.install_two_face eng ~keyring ~params
              ~instance:(Core.Runner.ba_instance_name ~seed:7) ~pids:victims) );
    ]
  in
  Format.printf "%-36s %8s %6s %9s %6s@." "adversary" "decided" "agree" "words" "rounds";
  List.iter
    (fun (name, scheduler, corruption) ->
      let o = Core.Runner.run_ba ?scheduler ~corruption ~keyring ~params ~inputs ~seed:7 () in
      Format.printf "%-36s %8b %6b %9d %6d@." name o.Core.Runner.all_decided
        o.Core.Runner.agreement o.Core.Runner.words o.Core.Runner.rounds)
    scenarios;

  (* The E7 ablation on the shared coin. *)
  Format.printf
    "@.Ablation: content-adaptive corruption of the min-VRF holders (violates@.\
     the delayed-adaptive model) vs a compliant adversary, 40 coin flips each:@.";
  let trials = 40 in
  let count_ones ~cheat =
    let ones = ref 0 and unanimous = ref 0 in
    for seed = 1 to trials do
      (* Omnisciently corrupt holders of the smallest LSB-0 values. *)
      let pre_corrupt =
        if cheat then Core.Attacks.coin_cheaters ~keyring ~f ~seed ~round:seed else []
      in
      let o = Core.Runner.run_shared_coin ~pre_corrupt ~keyring ~n ~f ~round:seed ~seed () in
      match o.Core.Runner.unanimous with
      | Some b ->
          incr unanimous;
          if b = 1 then incr ones
      | None -> ()
    done;
    (!ones, !unanimous)
  in
  let fair_ones, fair_unanimous = count_ones ~cheat:false in
  let cheat_ones, cheat_unanimous = count_ones ~cheat:true in
  Format.printf "  compliant adversary: %d/%d unanimous flips came up 1@." fair_ones fair_unanimous;
  Format.printf "  cheating adversary:  %d/%d unanimous flips came up 1@." cheat_ones cheat_unanimous;
  Format.printf "  (the cheat drives the coin towards 1 at rate ~1 - 2^-(f+1))@."
