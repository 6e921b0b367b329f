(* The series one message tag feeds, resolved on the tag's first
   appearance.  Sent series are indexed by class: 0 correct, 1 byz. *)
type tag_series = {
  delivered : Metrics.counter;
  sent_msgs : Metrics.counter array;
  sent_words : Metrics.counter array;
  words_per_msg : Metrics.histo;
}

(* Per-pid and per-round pairs: (messages, words). *)
type pair = { msgs : Metrics.counter; words : Metrics.counter }

let attach eng ~metrics ?tag_of ?round_of () =
  let tag_labels tag = match tag_of with None -> [] | Some _ -> [ ("tag", tag) ] in
  let resolve tag =
    let sent name cls = Metrics.counter metrics ~labels:(("class", cls) :: tag_labels tag) name in
    {
      delivered = Metrics.counter metrics ~labels:(tag_labels tag) "delivered_msgs";
      sent_msgs = [| sent "sent_msgs" "correct"; sent "sent_msgs" "byz" |];
      sent_words = [| sent "sent_words" "correct"; sent "sent_words" "byz" |];
      words_per_msg = Metrics.histo metrics ~labels:(tag_labels tag) "words_per_msg";
    }
  in
  (* [series.(i)] belongs to the tag interned as [i]. *)
  let tags = Sim.Intern.create () in
  let series = ref [||] in
  let series_of m =
    let tag = match tag_of with None -> "" | Some f -> f m in
    let i = Sim.Intern.find tags tag in
    if i >= 0 then !series.(i)
    else begin
      let s = resolve tag in
      ignore (Sim.Intern.intern tags tag : int);
      series := Array.append !series [| s |];
      s
    end
  in
  let pair name_msgs name_words key value =
    let labels = [ (key, value) ] in
    {
      msgs = Metrics.counter metrics ~labels name_msgs;
      words = Metrics.counter metrics ~labels name_words;
    }
  in
  let procs = Array.make (Sim.Engine.n eng) None in
  let proc src =
    match procs.(src) with
    | Some p -> p
    | None ->
        let p = pair "proc_sent_msgs" "proc_sent_words" "pid" (string_of_int src) in
        procs.(src) <- Some p;
        p
  in
  (* Rounds come from messages, so they are clamped like the ledger's:
     at most [round_ceiling + 1] round series, whatever is forged. *)
  let rounds = Array.make (Sim.Ledger.round_ceiling + 1) None in
  let round r =
    let r = Sim.Ledger.clamp_round r in
    match rounds.(r) with
    | Some p -> p
    | None ->
        let p = pair "round_msgs" "round_words" "round" (string_of_int r) in
        rounds.(r) <- Some p;
        p
  in
  Sim.Engine.on_send_meta eng (fun ~src ~id:_ ~dst:_ ~count ~words ~depth:_ ~correct m ->
      let s = series_of m in
      let cls = if correct then 0 else 1 in
      Metrics.add s.sent_msgs.(cls) count;
      Metrics.add s.sent_words.(cls) (count * words);
      let p = proc src in
      Metrics.add p.msgs count;
      Metrics.add p.words (count * words);
      (match round_of with
      | Some f -> (
          match f m with
          | Some r ->
              let p = round r in
              Metrics.add p.msgs count;
              Metrics.add p.words (count * words)
          | None -> ())
      | None -> ());
      Metrics.record_int s.words_per_msg ~count words);
  let to_faulty = Metrics.counter metrics "delivered_to_faulty" in
  let latency_steps = Metrics.histo metrics "delivery_latency_steps" in
  let latency_vtime = Metrics.histo metrics "delivery_latency_vtime" in
  let causal_depth = Metrics.histo metrics "causal_depth" in
  Sim.Engine.on_deliver eng (fun e ->
      Metrics.add (series_of e.Sim.Envelope.payload).delivered 1;
      if not (Sim.Engine.is_correct eng e.Sim.Envelope.dst) then Metrics.add to_faulty 1;
      Metrics.record_int latency_steps ~count:1 (Sim.Engine.step eng - e.Sim.Envelope.sent_step);
      Metrics.record_diff latency_vtime ~count:1 (Sim.Engine.now eng) e.Sim.Envelope.sent_now;
      Metrics.record_int causal_depth ~count:1 e.Sim.Envelope.depth);
  let corruptions = Metrics.counter metrics "corruptions" in
  Sim.Engine.on_corrupt eng (fun _pid -> Metrics.add corruptions 1)
