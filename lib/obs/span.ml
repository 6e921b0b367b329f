type clock = { step : unit -> int; now : unit -> float }

let manual_clock () =
  let step = ref 0 and now = ref 0.0 in
  ({ step = (fun () -> !step); now = (fun () -> !now) }, fun s t -> step := s; now := t)

type span = {
  name : string;
  pid : int option;
  nest : int;
  begin_step : int;
  end_step : int;
  begin_now : float;
  end_now : float;
}

type open_span = { o_name : string; o_pid : int option; o_begin_step : int; o_begin_now : float }

type t = {
  clock : clock;
  mutable stack : open_span list;
  mutable done_rev : span list;  (** completed spans, newest first *)
}

let create clock = { clock; stack = []; done_rev = [] }

let begin_span t ?pid name =
  t.stack <-
    { o_name = name; o_pid = pid; o_begin_step = t.clock.step (); o_begin_now = t.clock.now () }
    :: t.stack

let end_span t =
  match t.stack with
  | [] -> invalid_arg "Obs.Span.end_span: no open span"
  | o :: rest ->
      t.stack <- rest;
      t.done_rev <-
        {
          name = o.o_name;
          pid = o.o_pid;
          nest = List.length rest;
          begin_step = o.o_begin_step;
          end_step = t.clock.step ();
          begin_now = o.o_begin_now;
          end_now = t.clock.now ();
        }
        :: t.done_rev

let with_span t ?pid name f =
  begin_span t ?pid name;
  Fun.protect ~finally:(fun () -> end_span t) f

let nesting t = List.length t.stack
let completed t = List.rev t.done_rev

let to_json t =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("name", Json.Str s.name);
             ("pid", match s.pid with Some p -> Json.Int p | None -> Json.Null);
             ("nest", Json.Int s.nest);
             ("begin_step", Json.Int s.begin_step);
             ("end_step", Json.Int s.end_step);
             ("begin_vtime", Json.Float s.begin_now);
             ("end_vtime", Json.Float s.end_now);
           ])
       (completed t))
