type 'm process_state =
  | Unregistered
  | Correct of ('m Envelope.t -> unit)
  | Crashed
  | Byzantine of ('m Envelope.t -> unit)

type 'm meta_observer =
  src:int -> id:int -> dst:int -> count:int -> words:int -> depth:int -> correct:bool -> 'm -> unit

(* Unicast arena: one slot per in-flight point-to-point message, int fields
   in flat struct-of-arrays storage.  Slots are recycled through a free
   stack at delivery, so steady-state sends allocate nothing but the
   payload option cell. *)
type 'm uni_arena = {
  mutable u_id : int array;
  mutable u_src : int array;
  mutable u_dst : int array;
  mutable u_words : int array;
  mutable u_depth : int array;
  mutable u_sstep : int array;
  mutable u_snow : float array;
  mutable u_payload : 'm option array;
  mutable u_free : int array;
  mutable u_nfree : int;
  mutable u_used : int;
}

(* Broadcast pool: one slot per in-flight logical broadcast.  [times] and
   [order] are parallel arrays in delivery order: slot k holds the k-th
   (time, dst) by ascending (time, dst), [len] how many destinations the
   record carries (n, or n - 1 when destination 0 went out on its own
   ahead of a send hook), and [next] is the expansion cursor — so
   expansion reads both arrays strictly sequentially.  At most one heap
   entry per broadcast is outstanding: the cursor's entry.  Because the
   record sorts ascending, that entry is the broadcast's global minimum
   pending (time, seq), so the engine-wide pop order is exactly the order
   of n individual enqueues. *)
type 'm bcast_pool = {
  mutable b_base : int array; (* envelope id of dst 0; dst d gets base + d *)
  mutable b_src : int array;
  mutable b_words : int array;
  mutable b_depth : int array;
  mutable b_sstep : int array;
  mutable b_snow : float array;
  mutable b_payload : 'm option array;
  mutable b_times : float array array;
  mutable b_order : int array array;
  mutable b_len : int array;
  mutable b_next : int array;
  mutable b_free : int array;
  mutable b_nfree : int;
  mutable b_used : int;
}

type 'm t = {
  n : int;
  rng : Crypto.Rng.t;
  scheduler : 'm Scheduler.t;
  queue : Heap.t; (* handles: slot*2 for unicast, slot*2+1 for broadcast *)
  uni : 'm uni_arena;
  bcast : 'm bcast_pool;
  procs : 'm process_state array;
  depth : int array;
  sort_scratch : Dsort.scratch;
  metrics : Metrics.t;
  mutable next_id : int;
  mutable step : int;
  mutable now : float;
  mutable send_hooks : (src:int -> 'm -> unit) list;
  mutable meta_observers : 'm meta_observer list;
  mutable deliver_observers : ('m Envelope.t -> unit) list;
  mutable corrupt_observers : (int -> unit) list;
}

type run_result = All_done | Quiescent | Step_limit

let create ?(scheduler = Scheduler.random ()) ~n ~seed () =
  if n <= 0 then invalid_arg "Engine.create: n must be positive";
  {
    n;
    rng = Crypto.Rng.create seed;
    scheduler;
    queue = Heap.create ~capacity:(max 16 (min (2 * n) 1_048_576)) ();
    uni =
      {
        u_id = Array.make 16 0;
        u_src = Array.make 16 0;
        u_dst = Array.make 16 0;
        u_words = Array.make 16 0;
        u_depth = Array.make 16 0;
        u_sstep = Array.make 16 0;
        u_snow = Array.make 16 0.0;
        u_payload = Array.make 16 None;
        u_free = Array.make 16 0;
        u_nfree = 0;
        u_used = 0;
      };
    bcast =
      {
        b_base = Array.make 8 0;
        b_src = Array.make 8 0;
        b_words = Array.make 8 0;
        b_depth = Array.make 8 0;
        b_sstep = Array.make 8 0;
        b_snow = Array.make 8 0.0;
        b_payload = Array.make 8 None;
        b_times = Array.make 8 [||];
        b_order = Array.make 8 [||];
        b_len = Array.make 8 0;
        b_next = Array.make 8 0;
        b_free = Array.make 8 0;
        b_nfree = 0;
        b_used = 0;
      };
    procs = Array.make n Unregistered;
    depth = Array.make n 0;
    sort_scratch = Dsort.scratch ();
    metrics = Metrics.create ();
    next_id = 0;
    step = 0;
    now = 0.0;
    send_hooks = [];
    meta_observers = [];
    deliver_observers = [];
    corrupt_observers = [];
  }

let n t = t.n
let rng t = t.rng
let metrics t = t.metrics
let step t = t.step
let now t = t.now

let check_pid t pid =
  if pid < 0 || pid >= t.n then invalid_arg "Engine: pid out of range"

let set_handler t pid h =
  check_pid t pid;
  match t.procs.(pid) with
  | Unregistered | Correct _ -> t.procs.(pid) <- Correct h
  | Crashed | Byzantine _ ->
      (* Protocol setup after corruption keeps the corrupted state. *)
      ()

let is_correct t pid =
  check_pid t pid;
  match t.procs.(pid) with Unregistered | Correct _ -> true | Crashed | Byzantine _ -> false

let corrupted_count t =
  Array.fold_left
    (fun acc s -> match s with Crashed | Byzantine _ -> acc + 1 | Unregistered | Correct _ -> acc)
    0 t.procs

let correct_pids t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if is_correct t i then i :: acc else acc) in
  go (t.n - 1) []

(* Frontier-cursor "all correct pids satisfy pred".  Sound because both
   escape hatches are monotone: a pid skipped as satisfied stays
   satisfied (the predicate is required never to flip back) and a pid
   skipped as corrupted stays corrupted (crashes never heal).  So pids
   behind the cursor never need re-checking and the scan is amortized
   O(1) per call — essential as a [run ~until] predicate, which fires
   once per delivery. *)
let all_correct_monotone t pred =
  let next = ref 0 in
  fun () ->
    while !next < t.n && ((not (is_correct t !next)) || pred !next) do incr next done;
    !next >= t.n

(* ---- arena management ------------------------------------------------- *)

let grow_int a used = let n' = Array.make (2 * Array.length a) 0 in Array.blit a 0 n' 0 used; n'
let grow_float a used = let n' = Array.make (2 * Array.length a) 0.0 in Array.blit a 0 n' 0 used; n'

let grow_any a used witness =
  let n' = Array.make (2 * Array.length a) witness in
  Array.blit a 0 n' 0 used;
  n'

let u_alloc t =
  let u = t.uni in
  if u.u_nfree > 0 then begin
    u.u_nfree <- u.u_nfree - 1;
    u.u_free.(u.u_nfree)
  end
  else begin
    if u.u_used = Array.length u.u_id then begin
      let used = u.u_used in
      u.u_id <- grow_int u.u_id used;
      u.u_src <- grow_int u.u_src used;
      u.u_dst <- grow_int u.u_dst used;
      u.u_words <- grow_int u.u_words used;
      u.u_depth <- grow_int u.u_depth used;
      u.u_sstep <- grow_int u.u_sstep used;
      u.u_snow <- grow_float u.u_snow used;
      u.u_payload <- grow_any u.u_payload used None
    end;
    let s = u.u_used in
    u.u_used <- s + 1;
    s
  end

let u_release t s =
  let u = t.uni in
  u.u_payload.(s) <- None;
  if u.u_nfree = Array.length u.u_free then u.u_free <- grow_int u.u_free u.u_nfree;
  u.u_free.(u.u_nfree) <- s;
  u.u_nfree <- u.u_nfree + 1

let b_alloc t =
  let b = t.bcast in
  if b.b_nfree > 0 then begin
    b.b_nfree <- b.b_nfree - 1;
    b.b_free.(b.b_nfree)
  end
  else begin
    if b.b_used = Array.length b.b_base then begin
      let used = b.b_used in
      b.b_base <- grow_int b.b_base used;
      b.b_src <- grow_int b.b_src used;
      b.b_words <- grow_int b.b_words used;
      b.b_depth <- grow_int b.b_depth used;
      b.b_sstep <- grow_int b.b_sstep used;
      b.b_snow <- grow_float b.b_snow used;
      b.b_payload <- grow_any b.b_payload used None;
      b.b_times <- grow_any b.b_times used [||];
      b.b_order <- grow_any b.b_order used [||];
      b.b_len <- grow_int b.b_len used;
      b.b_next <- grow_int b.b_next used
    end;
    let s = b.b_used in
    b.b_used <- s + 1;
    s
  end

(* A released slot keeps its [times]/[order] pair: no broadcast record
   has more than n destinations, so the next broadcast in the slot refills
   the same arrays instead of allocating 2n words. *)
let b_release t s =
  let b = t.bcast in
  b.b_payload.(s) <- None;
  if b.b_nfree = Array.length b.b_free then b.b_free <- grow_int b.b_free b.b_nfree;
  b.b_free.(b.b_nfree) <- s;
  b.b_nfree <- b.b_nfree + 1

(* ---- sending ---------------------------------------------------------- *)

(* Direct recursion, not [List.iter] over a closure: this runs once per
   send, observed or not, and the closure would be allocated every
   time. *)
let rec fire_meta observers ~src ~id ~dst ~count ~words ~depth ~correct m =
  match observers with
  | [] -> ()
  | obs :: rest ->
      obs ~src ~id ~dst ~count ~words ~depth ~correct m;
      fire_meta rest ~src ~id ~dst ~count ~words ~depth ~correct m

(* The same for envelope observers: a [List.iter] closure over the
   envelope would be allocated on every delivery, observed or not. *)
let rec fire_env observers e =
  match observers with
  | [] -> ()
  | obs :: rest ->
      obs e;
      fire_env rest e

let rec fire_hooks hooks ~src m =
  match hooks with
  | [] -> ()
  | hook :: rest ->
      hook ~src m;
      fire_hooks rest ~src m

let count_sends t ~count ~words ~correct =
  if correct then begin
    t.metrics.correct_msgs <- t.metrics.correct_msgs + count;
    t.metrics.correct_words <- t.metrics.correct_words + (count * words)
  end
  else begin
    t.metrics.byz_msgs <- t.metrics.byz_msgs + count;
    t.metrics.byz_words <- t.metrics.byz_words + (count * words)
  end

(* The sender's class, [None] once it has crashed. *)
let sender_class t src =
  match t.procs.(src) with
  | Crashed -> None
  | Unregistered | Correct _ -> Some true
  | Byzantine _ -> Some false

(* One point-to-point enqueue: metrics, arena slot, latency draw, heap push,
   then the meta observers. *)
let send_one t ~src ~dst ~words ~correct m =
  count_sends t ~count:1 ~words ~correct;
  let s = u_alloc t in
  let u = t.uni in
  let id = t.next_id in
  t.next_id <- id + 1;
  let depth = t.depth.(src) + 1 in
  u.u_id.(s) <- id;
  u.u_src.(s) <- src;
  u.u_dst.(s) <- dst;
  u.u_words.(s) <- words;
  u.u_depth.(s) <- depth;
  u.u_sstep.(s) <- t.step;
  u.u_snow.(s) <- t.now;
  u.u_payload.(s) <- Some m;
  let latency =
    t.scheduler.Scheduler.latency ~rng:t.rng ~now:t.now ~step:t.step ~src ~dst ~payload:m
  in
  (* The flipped comparison clamps negative *and* NaN draws to zero, so a
     misbehaving custom scheduler cannot poison the queue order. *)
  let latency = if latency >= 0.0 then latency else 0.0 in
  Heap.push t.queue (t.now +. latency) id ((s lsl 1));
  fire_meta t.meta_observers ~src ~id ~dst ~count:1 ~words ~depth ~correct m

(* The send hooks run after the envelope is on the queue and reported, so
   a corruption they make cannot take the send back. *)
let send t ~src ~dst ~words m =
  check_pid t src;
  check_pid t dst;
  match sender_class t src with
  | None -> () (* a crashed process sends nothing *)
  | Some correct ->
      send_one t ~src ~dst ~words ~correct m;
      fire_hooks t.send_hooks ~src m

(* One broadcast record for destinations [first .. n-1], envelope ids
   [base + dst].  The latency draws happen here, at send time, from the
   engine rng in destination order — the draws n individual enqueues
   would make — and are sorted into delivery order; destinations are then
   expanded one at a time as the queue picks them. *)
let broadcast_record t ~src ~words ~correct ~base ~first m =
  let len = t.n - first in
  t.next_id <- base + t.n;
  let s = b_alloc t in
  let b = t.bcast in
  if Array.length b.b_order.(s) <> t.n then begin
    b.b_times.(s) <- Array.make t.n 0.0;
    b.b_order.(s) <- Array.make t.n 0
  end;
  let times = b.b_times.(s) and order = b.b_order.(s) in
  let draw = Dsort.draw_buffer t.sort_scratch len in
  let tmin = ref infinity and tmax = ref neg_infinity in
  for i = 0 to len - 1 do
    let l =
      t.scheduler.Scheduler.latency ~rng:t.rng ~now:t.now ~step:t.step ~src ~dst:(first + i)
        ~payload:m
    in
    let tm = t.now +. (if l >= 0.0 then l else 0.0) in
    draw.(i) <- tm;
    if tm < !tmin then tmin := tm;
    if tm > !tmax then tmax := tm
  done;
  Dsort.sort_into t.sort_scratch ~tmin:!tmin ~tmax:!tmax ~dst0:first draw len times order;
  count_sends t ~count:len ~words ~correct;
  let depth = t.depth.(src) + 1 in
  b.b_base.(s) <- base;
  b.b_src.(s) <- src;
  b.b_words.(s) <- words;
  b.b_depth.(s) <- depth;
  b.b_sstep.(s) <- t.step;
  b.b_snow.(s) <- t.now;
  b.b_payload.(s) <- Some m;
  b.b_len.(s) <- len;
  b.b_next.(s) <- 0;
  Heap.push t.queue times.(0) (base + order.(0)) ((s lsl 1) lor 1);
  fire_meta t.meta_observers ~src ~id:(base + first) ~dst:first ~count:len ~words ~depth ~correct m

(* With no send hook a broadcast is one record.  With hooks, destination 0
   goes out first as its own envelope and the hooks see the send; a
   corruption they make judges the rest, which go out as one record in
   the sender's new class, or not at all after a crash.  Either way the
   rng draws, envelope ids, delivery order and metrics are those of n
   individual enqueues judged destination by destination. *)
let broadcast t ~src ~words m =
  check_pid t src;
  match (sender_class t src, t.send_hooks) with
  | None, _ -> ()
  | Some correct, [] -> broadcast_record t ~src ~words ~correct ~base:t.next_id ~first:0 m
  | Some correct, hooks -> (
      let base = t.next_id in
      send_one t ~src ~dst:0 ~words ~correct m;
      fire_hooks hooks ~src m;
      if t.next_id <> base + 1 then invalid_arg "Engine: a send hook must not send";
      match sender_class t src with
      | Some correct when t.n > 1 -> broadcast_record t ~src ~words ~correct ~base ~first:1 m
      | Some _ | None -> ())

let corrupt_crash t pid =
  check_pid t pid;
  t.procs.(pid) <- Crashed;
  List.iter (fun obs -> obs pid) t.corrupt_observers

let corrupt_byzantine t pid h =
  check_pid t pid;
  t.procs.(pid) <- Byzantine h;
  List.iter (fun obs -> obs pid) t.corrupt_observers

(* Observers fire in registration order (appended, not prepended). *)
let on_sent t hook = t.send_hooks <- t.send_hooks @ [ hook ]
let on_send_meta t obs = t.meta_observers <- t.meta_observers @ [ obs ]
let on_deliver t obs = t.deliver_observers <- t.deliver_observers @ [ obs ]
let on_corrupt t obs = t.corrupt_observers <- t.corrupt_observers @ [ obs ]

let depth_of t pid =
  check_pid t pid;
  t.depth.(pid)

let max_correct_depth t =
  let best = ref 0 in
  for i = 0 to t.n - 1 do
    if is_correct t i && t.depth.(i) > !best then best := t.depth.(i)
  done;
  !best

(* ---- delivery --------------------------------------------------------- *)

let deliver_env t e =
  let dst = e.Envelope.dst in
  t.metrics.delivered <- t.metrics.delivered + 1;
  fire_env t.deliver_observers e;
  match t.procs.(dst) with
  | Crashed | Unregistered -> t.metrics.dropped_at_crashed <- t.metrics.dropped_at_crashed + 1
  | Correct h | Byzantine h ->
      if e.Envelope.depth > t.depth.(dst) then t.depth.(dst) <- e.Envelope.depth;
      h e

(* Consumes the heap's minimum entry and delivers it.  The caller has
   already read the entry's priority (to advance [now]) but not removed
   it: a broadcast with destinations left replaces the root in one sift
   ({!Heap.replace_top}) instead of paying drop + push. *)
let deliver_top t =
  let handle = Heap.top_val t.queue in
  if handle land 1 = 0 then begin
    (* unicast arena slot: materialize the view, recycle the slot *)
    Heap.drop t.queue;
    let s = handle lsr 1 in
    let u = t.uni in
    let payload = match u.u_payload.(s) with Some m -> m | None -> assert false in
    let e =
      {
        Envelope.id = u.u_id.(s);
        src = u.u_src.(s);
        dst = u.u_dst.(s);
        payload;
        words = u.u_words.(s);
        depth = u.u_depth.(s);
        sent_step = u.u_sstep.(s);
        sent_now = u.u_snow.(s);
      }
    in
    u_release t s;
    deliver_env t e
  end
  else begin
    (* broadcast record: expand the cursor's destination, then keep exactly
       one heap entry outstanding (the next in time order) or retire the
       record after its last delivery *)
    let s = handle lsr 1 in
    let b = t.bcast in
    let cur = b.b_next.(s) in
    let dst = b.b_order.(s).(cur) in
    let payload = match b.b_payload.(s) with Some m -> m | None -> assert false in
    let e =
      {
        Envelope.id = b.b_base.(s) + dst;
        src = b.b_src.(s);
        dst;
        payload;
        words = b.b_words.(s);
        depth = b.b_depth.(s);
        sent_step = b.b_sstep.(s);
        sent_now = b.b_snow.(s);
      }
    in
    b.b_next.(s) <- cur + 1;
    if cur + 1 < b.b_len.(s) then begin
      let d' = b.b_order.(s).(cur + 1) in
      Heap.replace_top t.queue b.b_times.(s).(cur + 1) (b.b_base.(s) + d') handle
    end
    else begin
      Heap.drop t.queue;
      b_release t s
    end;
    deliver_env t e
  end

let run ?(max_steps = 50_000_000) t ~until =
  (* Allocation-free heap access: [pop]'s option/tuple result would be
     the single largest allocation in a bench-scale run. *)
  let rec loop () =
    if until () then All_done
    else if t.step >= max_steps then Step_limit
    else if Heap.size t.queue = 0 then Quiescent
    else begin
      let prio = Heap.top_prio t.queue in
      t.now <- (if prio > t.now then prio else t.now);
      t.step <- t.step + 1;
      deliver_top t;
      loop ()
    end
  in
  loop ()
