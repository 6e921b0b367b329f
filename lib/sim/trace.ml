type event =
  | Sent of { step : int; id : int; src : int; dst : int; depth : int; words : int }
  | Delivered of { step : int; id : int; src : int; dst : int; depth : int }
  | Corrupted of { step : int; pid : int }

(* A ring of events in fixed-size chunks.  Slot [i] is the seven ints
   from [fields * (i land (chunk_slots - 1))] of chunk [i lsr chunk_bits]:
   kind, step, id, src, dst, depth, words.  Recording is seven int stores
   and allocates nothing.  A chunk is allocated when the write cursor
   first reaches it, cut to the capacity if it is the last one, and never
   moved: the ring fills without copying.  Only a full ring wraps, so a
   filling ring holds its events in slots 0 .. total - 1, and the cursor
   reaches the chunks in index order.  [Corrupted] keeps its pid in
   [src]; [Delivered] and [Corrupted] leave the unused fields 0. *)

let kind_sent = 0
let kind_delivered = 1
let kind_corrupted = 2

let fields = 7
let chunk_bits = 10
let chunk_slots = 1 lsl chunk_bits

type t = {
  capacity : int;
  mutable chunks : int array array;  (* the chunks reached so far *)
  mutable next : int;   (* write cursor *)
  mutable total : int;  (* events ever recorded *)
}

let create ?(capacity = 100_000) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; chunks = [||]; next = 0; total = 0 }

let new_chunk t c =
  let slots = min chunk_slots (t.capacity - (c lsl chunk_bits)) in
  let chunk = Array.make (fields * slots) 0 in
  t.chunks <- Array.append t.chunks [| chunk |];
  chunk

let record t ~kind ~step ~id ~src ~dst ~depth ~words =
  let i = t.next in
  let c = i lsr chunk_bits in
  let chunk = if c < Array.length t.chunks then t.chunks.(c) else new_chunk t c in
  let b = fields * (i land (chunk_slots - 1)) in
  chunk.(b) <- kind;
  chunk.(b + 1) <- step;
  chunk.(b + 2) <- id;
  chunk.(b + 3) <- src;
  chunk.(b + 4) <- dst;
  chunk.(b + 5) <- depth;
  chunk.(b + 6) <- words;
  t.next <- (if i + 1 = t.capacity then 0 else i + 1);
  t.total <- t.total + 1

(* One meta call covers envelopes [id + k] to [dst + k]; they are written
   as [count] Sent events in that order, destination order. *)
let attach t eng =
  Engine.on_send_meta eng (fun ~src ~id ~dst ~count ~words ~depth ~correct:_ _ ->
      let step = Engine.step eng in
      for k = 0 to count - 1 do
        record t ~kind:kind_sent ~step ~id:(id + k) ~src ~dst:(dst + k) ~depth ~words
      done);
  Engine.on_deliver eng (fun e ->
      record t ~kind:kind_delivered ~step:(Engine.step eng) ~id:e.Envelope.id ~src:e.Envelope.src
        ~dst:e.Envelope.dst ~depth:e.Envelope.depth ~words:0);
  Engine.on_corrupt eng (fun pid ->
      record t ~kind:kind_corrupted ~step:(Engine.step eng) ~id:0 ~src:pid ~dst:0 ~depth:0
        ~words:0)

let length t = min t.total t.capacity
let dropped t = max 0 (t.total - t.capacity)

let event_at t i =
  let chunk = t.chunks.(i lsr chunk_bits) and b = fields * (i land (chunk_slots - 1)) in
  let k = chunk.(b) and step = chunk.(b + 1) in
  if k = kind_sent then
    Sent
      {
        step;
        id = chunk.(b + 2);
        src = chunk.(b + 3);
        dst = chunk.(b + 4);
        depth = chunk.(b + 5);
        words = chunk.(b + 6);
      }
  else if k = kind_delivered then
    Delivered
      { step; id = chunk.(b + 2); src = chunk.(b + 3); dst = chunk.(b + 4); depth = chunk.(b + 5) }
  else Corrupted { step; pid = chunk.(b + 3) }

(* The slot of the [k]-th oldest live event. *)
let slot t k =
  let j = (if t.total <= t.capacity then 0 else t.next) + k in
  if j >= t.capacity then j - t.capacity else j

(* Single passes over the live slots, without materializing a list;
   every accessor below is one of these folds. *)
let fold t ~init ~f =
  let acc = ref init in
  for k = 0 to length t - 1 do
    acc := f !acc (event_at t (slot t k))
  done;
  !acc

let fold_right t ~f ~init =
  let acc = ref init in
  for k = length t - 1 downto 0 do
    acc := f (event_at t (slot t k)) !acc
  done;
  !acc

let iter t ~f = fold t ~init:() ~f:(fun () e -> f e)

let events t = fold_right t ~f:List.cons ~init:[]

let sends_by t pid =
  fold t ~init:0 ~f:(fun acc e ->
      match e with Sent { src; _ } when src = pid -> acc + 1 | _ -> acc)

let deliveries_of t ~id =
  fold_right t ~init:[] ~f:(fun e acc ->
      match e with Delivered { id = i; dst; _ } when i = id -> dst :: acc | _ -> acc)

let corrupted_pids t =
  fold_right t ~init:[] ~f:(fun e acc -> match e with Corrupted { pid; _ } -> pid :: acc | _ -> acc)

let max_depth t =
  fold t ~init:0 ~f:(fun acc e ->
      match e with
      | Sent { depth; _ } | Delivered { depth; _ } -> max acc depth
      | Corrupted _ -> acc)

let pp_event fmt = function
  | Sent { step; id; src; dst; depth; words } ->
      Format.fprintf fmt "@[<h>%6d SEND  #%d %d->%d depth=%d words=%d@]" step id src dst depth words
  | Delivered { step; id; src; dst; depth } ->
      Format.fprintf fmt "@[<h>%6d DELIV #%d %d->%d depth=%d@]" step id src dst depth
  | Corrupted { step; pid } -> Format.fprintf fmt "@[<h>%6d CORRUPT pid=%d@]" step pid

let pp fmt t =
  iter t ~f:(fun e -> Format.fprintf fmt "%a@." pp_event e);
  if dropped t > 0 then Format.fprintf fmt "(%d earlier events dropped)@." (dropped t)
