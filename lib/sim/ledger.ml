(* Flat word-complexity accumulator.

   Layout: one int array, phase-major —
     cell (p, r) lives at ((p * cap_rounds) + r) * fields
   so growing the round capacity re-strides once per doubling (amortised
   O(1) per message) and a new phase appends one contiguous block without
   moving existing cells.  No per-message allocation, no hashing: the
   phase id is interned ({!Intern}) by linear scan over the handful of
   protocol tags a message type carries, which is what keeps
   [record_send] cheap enough for the n >= 1e5 sweeps this ledger exists
   to serve. *)

type cell = {
  correct_msgs : int;
  correct_words : int;
  byz_msgs : int;
  byz_words : int;
  delivered : int;
}

let zero_cell = { correct_msgs = 0; correct_words = 0; byz_msgs = 0; byz_words = 0; delivered = 0 }

let add_cell a b =
  {
    correct_msgs = a.correct_msgs + b.correct_msgs;
    correct_words = a.correct_words + b.correct_words;
    byz_msgs = a.byz_msgs + b.byz_msgs;
    byz_words = a.byz_words + b.byz_words;
    delivered = a.delivered + b.delivered;
  }

let is_zero_cell c =
  c.correct_msgs = 0 && c.correct_words = 0 && c.byz_msgs = 0 && c.byz_words = 0
  && c.delivered = 0

let fields = 5

type t = {
  phases : Intern.t;
  mutable cap_rounds : int;
  mutable max_round : int;        (* -1 while empty *)
  mutable data : int array;       (* phases * cap_rounds * fields ints *)
}

let create () = { phases = Intern.create (); cap_rounds = 16; max_round = -1; data = [||] }

let nphases t = Intern.length t.phases
let phases t = List.init (nphases t) (Intern.get t.phases)
let max_round t = t.max_round

(* Rounds above the ceiling share its row, as negative rounds share row
   0: a round number is read from a message, so a forged one must not
   size the table. *)
let round_ceiling = 1024

let clamp_round r = if r < 0 then 0 else if r > round_ceiling then round_ceiling else r

let grow_rounds t round =
  let cap = ref t.cap_rounds in
  while round >= !cap do cap := !cap * 2 done;
  let data = Array.make (nphases t * !cap * fields) 0 in
  for p = 0 to nphases t - 1 do
    Array.blit t.data (p * t.cap_rounds * fields) data (p * !cap * fields)
      (t.cap_rounds * fields)
  done;
  t.cap_rounds <- !cap;
  t.data <- data

let intern_phase t name =
  let p = Intern.find t.phases name in
  if p >= 0 then p
  else begin
    t.data <- Array.append t.data (Array.make (t.cap_rounds * fields) 0);
    Intern.intern t.phases name
  end

let slot t ~phase ~round =
  let round = clamp_round round in
  let p = intern_phase t phase in
  if round >= t.cap_rounds then grow_rounds t round;
  if round > t.max_round then t.max_round <- round;
  ((p * t.cap_rounds) + round) * fields

let record_send t ~phase ~round ~correct ~words =
  let i = slot t ~phase ~round in
  if correct then begin
    t.data.(i) <- t.data.(i) + 1;
    t.data.(i + 1) <- t.data.(i + 1) + words
  end
  else begin
    t.data.(i + 2) <- t.data.(i + 2) + 1;
    t.data.(i + 3) <- t.data.(i + 3) + words
  end

let record_send_many t ~phase ~round ~correct ~words ~count =
  (* count = 0 must be a complete no-op — not even a phase interning —
     so that the call is exactly [count] repeated [record_send]s. *)
  if count <> 0 then begin
  let i = slot t ~phase ~round in
  if correct then begin
    t.data.(i) <- t.data.(i) + count;
    t.data.(i + 1) <- t.data.(i + 1) + (words * count)
  end
  else begin
    t.data.(i + 2) <- t.data.(i + 2) + count;
    t.data.(i + 3) <- t.data.(i + 3) + (words * count)
  end
  end

let record_delivery t ~phase ~round =
  let i = slot t ~phase ~round in
  t.data.(i + 4) <- t.data.(i + 4) + 1

let cell_at t p r =
  let i = ((p * t.cap_rounds) + r) * fields in
  {
    correct_msgs = t.data.(i);
    correct_words = t.data.(i + 1);
    byz_msgs = t.data.(i + 2);
    byz_words = t.data.(i + 3);
    delivered = t.data.(i + 4);
  }

let cell t ~phase ~round =
  let p = Intern.find t.phases phase in
  if p >= 0 && round >= 0 && round <= t.max_round then cell_at t p round else zero_cell

let fold t ~init ~f =
  let acc = ref init in
  for r = 0 to t.max_round do
    for p = 0 to nphases t - 1 do
      let c = cell_at t p r in
      if not (is_zero_cell c) then acc := f !acc ~phase:(Intern.get t.phases p) ~round:r c
    done
  done;
  !acc

let round_total t round =
  if round < 0 || round > t.max_round then zero_cell
  else begin
    let acc = ref zero_cell in
    for p = 0 to nphases t - 1 do
      acc := add_cell !acc (cell_at t p round)
    done;
    !acc
  end

let total t =
  let acc = ref zero_cell in
  for r = 0 to t.max_round do
    acc := add_cell !acc (round_total t r)
  done;
  !acc

let reset t =
  Array.fill t.data 0 (Array.length t.data) 0;
  t.max_round <- -1

let attach eng t ~tag_of ?round_of () =
  let round_of = match round_of with Some f -> f | None -> fun _ -> 0 in
  (* The compact meta hook: one call per logical broadcast, so a
     broadcast costs one record, not n. *)
  Engine.on_send_meta eng (fun ~src:_ ~id:_ ~dst:_ ~count ~words ~depth:_ ~correct m ->
      record_send_many t ~phase:(tag_of m) ~round:(round_of m) ~correct ~words ~count);
  Engine.on_deliver eng (fun e ->
      record_delivery t
        ~phase:(tag_of e.Envelope.payload)
        ~round:(round_of e.Envelope.payload))
