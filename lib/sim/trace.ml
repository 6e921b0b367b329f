type event =
  | Sent of { step : int; id : int; src : int; dst : int; depth : int; words : int }
  | Delivered of { step : int; id : int; src : int; dst : int; depth : int }
  | Corrupted of { step : int; pid : int }

(* A ring of events in struct-of-arrays form: slot i of every array is
   one event, so recording is seven int stores and allocates nothing.
   [Corrupted] keeps its pid in [src]; [Delivered] and [Corrupted] leave
   the unused fields 0.  The arrays start small and double, up to
   [capacity], the first time the ring fills; only a full-size ring
   wraps, so a growing ring holds its events in slots 0 .. total - 1. *)

let kind_sent = 0
let kind_delivered = 1
let kind_corrupted = 2

type t = {
  capacity : int;
  mutable kind : int array;
  mutable step : int array;
  mutable id : int array;
  mutable src : int array;
  mutable dst : int array;
  mutable depth : int array;
  mutable words : int array;
  mutable next : int;   (* write cursor *)
  mutable total : int;  (* events ever recorded *)
}

let initial_slots = 1024

let create ?(capacity = 100_000) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  let len = min capacity initial_slots in
  let arr () = Array.make len 0 in
  {
    capacity;
    kind = arr ();
    step = arr ();
    id = arr ();
    src = arr ();
    dst = arr ();
    depth = arr ();
    words = arr ();
    next = 0;
    total = 0;
  }

let grow t =
  let len = min t.capacity (2 * Array.length t.kind) in
  let g a =
    let a' = Array.make len 0 in
    Array.blit a 0 a' 0 t.next;
    a'
  in
  t.kind <- g t.kind;
  t.step <- g t.step;
  t.id <- g t.id;
  t.src <- g t.src;
  t.dst <- g t.dst;
  t.depth <- g t.depth;
  t.words <- g t.words

let record t ~kind ~step ~id ~src ~dst ~depth ~words =
  if t.next = Array.length t.kind && t.next < t.capacity then grow t;
  let i = t.next in
  t.kind.(i) <- kind;
  t.step.(i) <- step;
  t.id.(i) <- id;
  t.src.(i) <- src;
  t.dst.(i) <- dst;
  t.depth.(i) <- depth;
  t.words.(i) <- words;
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
  let step = t.step.(i) in
  let k = t.kind.(i) in
  if k = kind_sent then
    Sent
      {
        step;
        id = t.id.(i);
        src = t.src.(i);
        dst = t.dst.(i);
        depth = t.depth.(i);
        words = t.words.(i);
      }
  else if k = kind_delivered then
    Delivered { step; id = t.id.(i); src = t.src.(i); dst = t.dst.(i); depth = t.depth.(i) }
  else Corrupted { step; pid = t.src.(i) }

(* Single pass over the live slots, oldest first, without materializing a
   list; every accessor below is a fold. *)
let fold t ~init ~f =
  let len = length t in
  let start = if t.total <= t.capacity then 0 else t.next in
  let acc = ref init in
  for i = 0 to len - 1 do
    let j = start + i in
    acc := f !acc (event_at t (if j >= t.capacity then j - t.capacity else j))
  done;
  !acc

let iter t ~f = fold t ~init:() ~f:(fun () e -> f e)

let events t = List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))

let sends_by t pid =
  fold t ~init:0 ~f:(fun acc e ->
      match e with Sent { src; _ } when src = pid -> acc + 1 | _ -> acc)

let deliveries_of t ~id =
  List.rev
    (fold t ~init:[] ~f:(fun acc e ->
         match e with Delivered { id = i; dst; _ } when i = id -> dst :: acc | _ -> acc))

let corrupted_pids t =
  List.rev
    (fold t ~init:[] ~f:(fun acc e ->
         match e with Corrupted { pid; _ } -> pid :: acc | _ -> acc))

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
