(* Delivery-order sort: the parallel arrays (times, dsts) sorted ascending
   by (time, dst).  This is the per-broadcast step that turns latency draws
   (in destination order) into the expansion order {!Engine}'s lazy path
   consumes, so it is the hottest O(n log n) loop in a bench-scale run.

   Strategy: bucket scatter by time into ~len buckets, then one insertion
   pass to fix intra-bucket disorder.  For the latency distributions the
   bundled schedulers draw (exponential and mixtures of it), bucket
   occupancy is O(1) on average and the pass is linear.  The scatter is
   stable over destination order, so equal times come out dst-ascending
   without ever comparing dsts — a fully-degenerate time array (fifo's
   all-zero draws) short-circuits to no work at all.

   Robustness: the insertion pass carries a work budget of 32 shifts per
   element.  A custom scheduler whose distribution defeats the bucketing
   (say, a heavy tail that crams everything into bucket zero) exhausts the
   budget and the sort restarts as a plain quicksort on (time, dst) —
   always correct, never worse than O(n^2) on adversarial custom input,
   O(n log n) in any case a bundled scheduler can produce. *)

(* In-place quicksort fallback.  Hand-specialised: [Array.sort] with a
   comparator closure costs an indirect call plus a [Float.compare] per
   comparison.  Keys are distinct (dst is unique within a broadcast), so
   value-pivot Hoare partitioning needs no equal-key handling; recursing
   on the smaller half bounds the stack.  The annotations matter: an
   unannotated pair generalises to ['a array], and every comparison then
   goes through the polymorphic C compare on a boxed float. *)
let quicksort (times : float array) (dsts : int array) lo0 hi0 =
  let swap i j =
    let tt = times.(i) in
    times.(i) <- times.(j);
    times.(j) <- tt;
    let dd = dsts.(i) in
    dsts.(i) <- dsts.(j);
    dsts.(j) <- dd
  in
  let rec go lo hi =
    if hi - lo < 16 then
      for i = lo + 1 to hi do
        let ti = times.(i) and di = dsts.(i) in
        let j = ref (i - 1) in
        while !j >= lo && (times.(!j) > ti || (times.(!j) = ti && dsts.(!j) > di)) do
          times.(!j + 1) <- times.(!j);
          dsts.(!j + 1) <- dsts.(!j);
          decr j
        done;
        times.(!j + 1) <- ti;
        dsts.(!j + 1) <- di
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let less i j =
        times.(i) < times.(j) || (times.(i) = times.(j) && dsts.(i) < dsts.(j))
      in
      if less mid lo then swap mid lo;
      if less hi mid then swap hi mid;
      if less mid lo then swap mid lo;
      let pt = times.(mid) and pd = dsts.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while times.(!i) < pt || (times.(!i) = pt && dsts.(!i) < pd) do incr i done;
        while times.(!j) > pt || (times.(!j) = pt && dsts.(!j) > pd) do decr j done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      if !j - lo < hi - !i then begin
        go lo !j;
        go !i hi
      end
      else begin
        go !i hi;
        go lo !j
      end
    end
  in
  go lo0 hi0

(* Reusable buffers: one set per engine, grown on demand, so steady-state broadcasts allocate nothing beyond
   their own persistent (times, dsts) pair.  [draw] is the staging array
   latency draws land in before the scatter. *)
type scratch = {
  mutable st : float array;
  mutable sd : int array;
  mutable counts : int array;
  mutable draw : float array;
}

let scratch () = { st = [||]; sd = [||]; counts = [||]; draw = [||] }

let ensure s len =
  if Array.length s.st < len then begin
    s.st <- Array.make len 0.0;
    s.sd <- Array.make len 0
  end;
  if Array.length s.counts < len + 1 then s.counts <- Array.make (len + 1) 0

let draw_buffer s len =
  if Array.length s.draw < len then s.draw <- Array.make len 0.0;
  s.draw

(* Budgeted insertion pass over the scattered array: returns false (leaving
   the array permuted but element-complete) when the disorder exceeds
   [32 * len] shifts, i.e. the bucketing failed to spread the input. *)
let insertion_within_budget (times : float array) (dsts : int array) len =
  let budget = ref (32 * len) in
  let i = ref 1 in
  let ok = ref true in
  while !ok && !i < len do
    let ti = times.(!i) and di = dsts.(!i) in
    let j = ref (!i - 1) in
    while !j >= 0 && (times.(!j) > ti || (times.(!j) = ti && dsts.(!j) > di)) do
      times.(!j + 1) <- times.(!j);
      dsts.(!j + 1) <- dsts.(!j);
      decr j;
      decr budget
    done;
    times.(!j + 1) <- ti;
    dsts.(!j + 1) <- di;
    if !budget < 0 then ok := false;
    incr i
  done;
  !ok

let sort s times dsts len =
  if len > 1 then begin
    (* Degenerate spans short-circuit: all-equal times (fifo) are already
       in delivery order because the input is destination-ascending. *)
    let tmin = ref times.(0) and tmax = ref times.(0) in
    for i = 1 to len - 1 do
      let t = times.(i) in
      if t < !tmin then tmin := t;
      if t > !tmax then tmax := t
    done;
    if !tmax > !tmin then begin
      if not (Float.is_finite !tmin && Float.is_finite !tmax) then
        (* Infinite (or NaN-poisoned) draws defeat the scale arithmetic;
           comparison-based sorting still orders them correctly. *)
        quicksort times dsts 0 (len - 1)
      else begin
        ensure s len;
        let counts = s.counts and st = s.st and sd = s.sd in
        Array.fill counts 0 (len + 1) 0;
        let scale = float_of_int (len - 1) /. (!tmax -. !tmin) in
        let tmin = !tmin in
        for i = 0 to len - 1 do
          let b = int_of_float ((times.(i) -. tmin) *. scale) in
          counts.(b + 1) <- counts.(b + 1) + 1
        done;
        for b = 1 to len - 1 do
          counts.(b) <- counts.(b) + counts.(b - 1)
        done;
        for i = 0 to len - 1 do
          let b = int_of_float ((times.(i) -. tmin) *. scale) in
          let pos = counts.(b) in
          counts.(b) <- pos + 1;
          st.(pos) <- times.(i);
          sd.(pos) <- dsts.(i)
        done;
        Array.blit st 0 times 0 len;
        Array.blit sd 0 dsts 0 len;
        if not (insertion_within_budget times dsts len) then
          quicksort times dsts 0 (len - 1)
      end
    end
  end

(* Specialised entry for broadcast expansion: the draws sit in [draw]
   (obtained from {!draw_buffer}) in destination order — element [i] is
   destination [dst0 + i] — and the caller already knows the time range
   from the draw loop.  Scatters straight into the broadcast's persistent
   [times]/[dsts] pair, skipping both the min/max pass and the
   copy-back. *)
let sort_into s ~tmin ~tmax ~dst0 draw len times dsts =
  if tmax <= tmin then begin
    (* All-equal times (fifo draws all zeros): delivery order is
       destination order. *)
    Array.fill times 0 len tmin;
    for i = 0 to len - 1 do
      dsts.(i) <- dst0 + i
    done
  end
  else if not (Float.is_finite tmin && Float.is_finite tmax) then begin
    Array.blit draw 0 times 0 len;
    for i = 0 to len - 1 do
      dsts.(i) <- dst0 + i
    done;
    quicksort times dsts 0 (len - 1)
  end
  else begin
    ensure s len;
    let counts = s.counts in
    Array.fill counts 0 (len + 1) 0;
    let scale = float_of_int (len - 1) /. (tmax -. tmin) in
    for i = 0 to len - 1 do
      let b = int_of_float ((draw.(i) -. tmin) *. scale) in
      counts.(b + 1) <- counts.(b + 1) + 1
    done;
    for b = 1 to len - 1 do
      counts.(b) <- counts.(b) + counts.(b - 1)
    done;
    for i = 0 to len - 1 do
      let t = draw.(i) in
      let b = int_of_float ((t -. tmin) *. scale) in
      let pos = counts.(b) in
      counts.(b) <- pos + 1;
      times.(pos) <- t;
      dsts.(pos) <- dst0 + i
    done;
    if not (insertion_within_budget times dsts len) then quicksort times dsts 0 (len - 1)
  end
