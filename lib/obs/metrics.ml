(* Power-of-two upper bounds 2^0 .. 2^24, plus an overflow bucket.  Sim
   quantities (words per message, causal depth, latency in steps or
   virtual time) all fit comfortably under 2^24. *)
let bucket_bounds =
  Array.append (Array.init 25 (fun i -> Float.of_int (1 lsl i))) [| Float.infinity |]

(* A loop rather than a local recursive function, so that it inlines
   into [update] and the value is never boxed. *)
let[@inline] bucket_index v =
  let last = Array.length bucket_bounds - 1 in
  let i = ref 0 in
  while !i < last && not (v <= bucket_bounds.(!i)) do Stdlib.incr i done;
  !i

type hist = { count : int; sum : float; min : float; max : float; buckets : int array }

(* A resolved series: the handle a recorder keeps so that recording is
   plain field and array stores, with no label sorting, rendering or
   hashing.  A series is created unrecorded and appears in folds, merges
   and documents only once [live], that is once something was recorded
   into it, so resolving a handle ahead of use changes no document.
   Histogram sum, min and max sit in a float array, which stores them
   unboxed: a float field of this mixed record would allocate a box on
   every update. *)
type counter = {
  c_name : string;
  c_labels : (string * string) list;
  mutable value : int;
  mutable c_live : bool;
}

type histo = {
  h_name : string;
  h_labels : (string * string) list;
  mutable h_count : int;
  h_stats : float array;  (* sum, min, max *)
  h_buckets : int array;
  mutable h_live : bool;
}

(* Keys are the rendered (name, canonical labels) string, to keep
   hashing cheap and collision-free. *)
type t = { counters : (string, counter) Hashtbl.t; histograms : (string, histo) Hashtbl.t }

let create () = { counters = Hashtbl.create 64; histograms = Hashtbl.create 16 }

let compare_label (ka, va) (kb, vb) =
  let c = String.compare ka kb in
  if c <> 0 then c else String.compare va vb

let canonical labels = List.sort compare_label labels

let render name labels =
  let buf = Buffer.create 32 in
  Buffer.add_string buf name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf v)
    labels;
  Buffer.contents buf

(* [labels] must already be canonical. *)
let counter_canonical t name labels =
  let key = render name labels in
  match Hashtbl.find_opt t.counters key with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_labels = labels; value = 0; c_live = false } in
      Hashtbl.replace t.counters key c;
      c

let counter t ?(labels = []) name = counter_canonical t name (canonical labels)

let add c by =
  c.value <- c.value + by;
  c.c_live <- true

let incr t ?(by = 1) ?labels name = add (counter t ?labels name) by

(* [labels] must already be canonical. *)
let histo_canonical t name labels =
  let key = render name labels in
  match Hashtbl.find_opt t.histograms key with
  | Some h -> h
  | None ->
      let h =
        {
          h_name = name;
          h_labels = labels;
          h_count = 0;
          h_stats = [| 0.0; Float.infinity; Float.neg_infinity |];
          h_buckets = Array.make (Array.length bucket_bounds) 0;
          h_live = false;
        }
      in
      Hashtbl.replace t.histograms key h;
      h

let histo t ?(labels = []) name = histo_canonical t name (canonical labels)

(* The one histogram update.  Inlined into [record] and [record_int], so
   the value stays an unboxed float on both paths.  [count] copies of [v]
   add [v * count] to the sum, which is the sum of [count] separate
   additions whenever those are exact: integer-valued observations below
   2^53, the only weighted ones {!Bridge} records. *)
let[@inline] update h count v =
  if count < 0 then invalid_arg "Obs.Metrics.record: negative count";
  if count > 0 then begin
    h.h_live <- true;
    h.h_count <- h.h_count + count;
    let st = h.h_stats in
    st.(0) <- st.(0) +. (if count = 1 then v else v *. float_of_int count);
    if v < st.(1) then st.(1) <- v;
    if v > st.(2) then st.(2) <- v;
    let i = bucket_index v in
    h.h_buckets.(i) <- h.h_buckets.(i) + count
  end

let record h ~count v = update h count v
let record_int h ~count v = update h count (float_of_int v)
let record_diff h ~count a b = update h count (a -. b)
let observe t ?labels name v = record (histo t ?labels name) ~count:1 v

let counter_value t ?(labels = []) name =
  match Hashtbl.find_opt t.counters (render name (canonical labels)) with
  | Some c -> c.value
  | None -> 0

let snapshot h =
  {
    count = h.h_count;
    sum = h.h_stats.(0);
    min = h.h_stats.(1);
    max = h.h_stats.(2);
    buckets = Array.copy h.h_buckets;
  }

let histogram t ?(labels = []) name =
  match Hashtbl.find_opt t.histograms (render name (canonical labels)) with
  | Some h when h.h_live -> Some (snapshot h)
  | Some _ | None -> None

(* Recorded series only, sorted by rendered key. *)
let sorted_live tbl ~live =
  Hashtbl.fold (fun key s acc -> if live s then (key, s) :: acc else acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
  |> List.map snd

let live_counters t = sorted_live t.counters ~live:(fun c -> c.c_live)
let live_histos t = sorted_live t.histograms ~live:(fun h -> h.h_live)

let fold_counters t ~init ~f =
  List.fold_left (fun acc c -> f acc ~name:c.c_name ~labels:c.c_labels c.value) init (live_counters t)

let fold_histograms t ~init ~f =
  List.fold_left
    (fun acc h -> f acc ~name:h.h_name ~labels:h.h_labels (snapshot h))
    init (live_histos t)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let to_json t =
  let counters =
    fold_counters t ~init:[] ~f:(fun acc ~name ~labels v ->
        Json.Obj [ ("name", Json.Str name); ("labels", labels_json labels); ("value", Json.Int v) ]
        :: acc)
    |> List.rev
  in
  let histograms =
    fold_histograms t ~init:[] ~f:(fun acc ~name ~labels h ->
        let buckets =
          Array.to_list
            (Array.mapi
               (fun i c ->
                 if c = 0 then None
                 else
                   Some
                     (Json.Obj
                        [
                          ( "le",
                            if Float.is_finite bucket_bounds.(i) then Json.Float bucket_bounds.(i)
                            else Json.Str "+inf" );
                          ("count", Json.Int c);
                        ]))
               h.buckets)
          |> List.filter_map Fun.id
        in
        Json.Obj
          [
            ("name", Json.Str name);
            ("labels", labels_json labels);
            ("count", Json.Int h.count);
            ("sum", Json.Float h.sum);
            ("min", if h.count = 0 then Json.Null else Json.Float h.min);
            ("max", if h.count = 0 then Json.Null else Json.Float h.max);
            ("buckets", Json.List buckets);
          ]
        :: acc)
    |> List.rev
  in
  Json.Obj [ ("counters", Json.List counters); ("histograms", Json.List histograms) ]

(* ------------------------------ merging ------------------------------ *)

let merge_into ~into src =
  (* Source labels are canonical already: they were canonicalised when
     the series was resolved. *)
  List.iter (fun c -> add (counter_canonical into c.c_name c.c_labels) c.value) (live_counters src);
  List.iter
    (fun h ->
      let dst = histo_canonical into h.h_name h.h_labels in
      dst.h_live <- true;
      dst.h_count <- dst.h_count + h.h_count;
      dst.h_stats.(0) <- dst.h_stats.(0) +. h.h_stats.(0);
      if h.h_stats.(1) < dst.h_stats.(1) then dst.h_stats.(1) <- h.h_stats.(1);
      if h.h_stats.(2) > dst.h_stats.(2) then dst.h_stats.(2) <- h.h_stats.(2);
      Array.iteri (fun i v -> dst.h_buckets.(i) <- dst.h_buckets.(i) + v) h.h_buckets)
    (live_histos src)

(* ------------------------- domain sharding --------------------------- *)

module Sharded = struct
  type registry = t

  let fresh_registry : unit -> registry = create

  (* Each Exec worker owns one private shard: the hot path (incr/observe
     on a claimed shard) is the plain single-domain mutation above — no
     Mutex, no Atomic, no fence.  Safety rests on the Exec protocol, not
     on synchronisation: worker w touches only shard w, and Domain.join
     orders every shard write before the merge reads them.

     The claim flags below are the one sanctioned cross-domain primitive
     (see the coinlint domain-hygiene allowance): an Atomic.exchange
     turns "two workers were handed the same shard" — a silent Hashtbl
     race under the no-sync design — into an immediate exception at
     campaign start. *)
  type t = { shards : registry array; claimed : bool Atomic.t array }

  let create ~workers =
    if workers <= 0 then invalid_arg "Obs.Metrics.Sharded.create: workers must be positive";
    {
      shards = Array.init workers (fun _ -> fresh_registry ());
      claimed = Array.init workers (fun _ -> Atomic.make false);
    }

  let workers t = Array.length t.shards

  let check t w fn =
    if w < 0 || w >= Array.length t.shards then
      invalid_arg
        (Printf.sprintf "Obs.Metrics.Sharded.%s: worker %d out of range (workers = %d)" fn w
           (Array.length t.shards))

  let shard t w =
    check t w "shard";
    t.shards.(w)

  let claim t w =
    check t w "claim";
    if Atomic.exchange t.claimed.(w) true then
      invalid_arg
        (Printf.sprintf
           "Obs.Metrics.Sharded.claim: shard %d already claimed (two workers, or two \
            concurrent campaigns sharing one registry)"
           w);
    t.shards.(w)

  let release_all t = Array.iter (fun c -> Atomic.set c false) t.claimed

  let merged t =
    let out = fresh_registry () in
    Array.iter (fun s -> merge_into ~into:out s) t.shards;
    out
end
