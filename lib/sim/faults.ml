let choose_random rng ~n ~f =
  if f < 0 || f > n then invalid_arg "Faults.choose_random";
  Crypto.Rng.sample_without_replacement rng f n

let crash_all eng pids = List.iter (Engine.corrupt_crash eng) pids

let byzantine_all eng pids strategy =
  List.iter (fun pid -> Engine.corrupt_byzantine eng pid (strategy pid)) pids

let adaptive_crash_first_senders eng ~f =
  let remaining = ref f in
  Engine.on_sent eng (fun ~src _ ->
      if !remaining > 0 && Engine.is_correct eng src then begin
        decr remaining;
        Engine.corrupt_crash eng src
      end)
