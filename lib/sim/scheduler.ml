type 'm latency_fn =
  rng:Crypto.Rng.t -> now:float -> step:int -> src:int -> dst:int -> payload:'m -> float

type 'm t = { latency : 'm latency_fn }

let exponential rng mean =
  (* Inverse-CDF sampling; clamp the uniform draw away from 0.  Spelled
     out rather than [max], which would box both floats and compare them
     polymorphically once per broadcast destination; same result. *)
  let u = Crypto.Rng.float rng 1.0 in
  let u = if 1e-12 >= u then 1e-12 else u in
  -.mean *. log u

let random ?(mean = 1.0) () =
  { latency = (fun ~rng ~now:_ ~step:_ ~src:_ ~dst:_ ~payload:_ -> exponential rng mean) }

let fifo () = { latency = (fun ~rng:_ ~now:_ ~step:_ ~src:_ ~dst:_ ~payload:_ -> 0.0) }

let targeted ~victims ~factor ?(mean = 1.0) () =
  {
    latency =
      (fun ~rng ~now:_ ~step:_ ~src ~dst:_ ~payload:_ ->
        let l = exponential rng mean in
        if victims src then l *. factor else l);
  }

let split ~group ~cross_delay ?(mean = 1.0) () =
  {
    latency =
      (fun ~rng ~now:_ ~step:_ ~src ~dst ~payload:_ ->
        let l = exponential rng mean in
        if group src = group dst then l else l +. cross_delay);
  }

let eventual_sync ?(gst = 50.0) ?(bound = 1.0) ?(chaos_mean = 20.0) () =
  {
    latency =
      (fun ~rng ~now ~step:_ ~src:_ ~dst:_ ~payload:_ ->
        if now < gst then
          (* chaotic period, but never past reliability: finite latencies *)
          exponential rng chaos_mean
        else Crypto.Rng.float rng bound);
  }

let custom latency = { latency }
