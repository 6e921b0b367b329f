(* Blockchain-style demo: the paper's motivating workload.

   Run with:  dune exec examples/blockchain_demo.exe [n] [blocks]

   The paper's introduction motivates sub-quadratic BA with large-scale
   systems that run agreement repeatedly (blockchains).  This example
   drives a small "chain": validators observe candidate blocks, vote on
   acceptance with binary BA WHP — one PKI setup, one BA instance per
   height ("setup has to occur once and may be used for any number of BA
   instances") — and track the cumulative communication bill versus what
   an O(n^2) protocol (MMR with the Algorithm 1 coin) would have paid. *)

type block = { height : int; payload_digest : string; proposer : int }

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 40 in
  let blocks = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 8 in
  let keyring = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"chain-pki" () in
  (* lambda = n keeps every slot live at demo scale (see quickstart.ml's
     note on finite-n committee shortfall). *)
  let params = Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n () in
  Format.printf "chain with %d validators, %a@.@." n Core.Params.pp params;

  let total_ours = ref 0 and total_quadratic = ref 0 and accepted = ref 0 in
  let rng = Crypto.Rng.create 2026 in
  for height = 1 to blocks do
    (* A proposer assembles a block; each validator locally checks it and
       forms a binary opinion.  An unlucky proposer produces a block that
       only part of the network sees in time, giving mixed inputs. *)
    let proposer = Crypto.Rng.int rng n in
    let block =
      {
        height;
        payload_digest = Crypto.Sha256.digest (Printf.sprintf "block-%d" height);
        proposer;
      }
    in
    let well_formed = Crypto.Rng.float rng 1.0 < 0.7 in
    let visibility = if well_formed then 1.0 else Crypto.Rng.float rng 1.0 in
    let inputs =
      Array.init n (fun _ -> if Crypto.Rng.float rng 1.0 < visibility then 1 else 0)
    in
    (* Decide acceptance with our sub-quadratic BA... *)
    let ours = Core.Runner.run_ba ~keyring ~params ~inputs ~seed:(1000 + height) () in
    (* ...and with the quadratic baseline for the bill comparison. *)
    let mmr =
      Baselines.Brun.run_mmr ~coin:(Baselines.Mmr.Vrf_coin keyring) ~n ~f:params.Core.Params.f
        ~inputs ~seed:(1000 + height) ()
    in
    total_ours := !total_ours + ours.Core.Runner.words;
    total_quadratic := !total_quadratic + mmr.Baselines.Brun.words;
    let decision = match ours.Core.Runner.decisions with (_, d) :: _ -> d | [] -> -1 in
    if not ours.Core.Runner.all_decided then
      Format.printf "  (height %d stalled: committee shortfall)@." height;
    if decision = 1 then incr accepted;
    Format.printf "height %2d  proposer %2d  digest %s...  votes(1)=%2d/%d  decision=%s  (%d words)@."
      block.height block.proposer
      (Crypto.Hex.encode (String.sub block.payload_digest 0 4))
      (Array.fold_left ( + ) 0 inputs)
      n
      (if decision = 1 then "ACCEPT" else "REJECT")
      ours.Core.Runner.words;
    assert (ours.Core.Runner.agreement)
  done;

  Format.printf "@.%d/%d blocks accepted@." !accepted blocks;
  Format.printf "communication bill: ours %d words, quadratic baseline (MMR) %d words@."
    !total_ours !total_quadratic;
  let ratio = float_of_int !total_ours /. float_of_int !total_quadratic in
  if ratio > 1.0 then
    Format.printf
      "at n = %d the committee machinery (certificates + W-signature OK proofs)@.\
       still costs %.1fx the quadratic baseline: O(n log^2 n) beats O(n^2) only@.\
       past the constant-factor crossover (~n = 2000 in E2).  Re-run with a@.\
       larger n, or see `dune exec bin/coincidence.exe -- experiment e2`.@."
      n ratio
  else
    Format.printf "the sub-quadratic protocol is %.1fx cheaper at this n.@." (1.0 /. ratio)
