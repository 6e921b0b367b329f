type msg =
  | A1 of { round : int; inner : Approver.msg }
  | A2 of { round : int; inner : Approver.msg }
  | Cn of { round : int; inner : Whp_coin.msg }

let words_of_msg = function
  | A1 { inner; _ } | A2 { inner; _ } -> 1 + Approver.words_of_msg inner
  | Cn { inner; _ } -> 1 + Whp_coin.words_of_msg inner

(* Phase tag for the observability layer: which sub-protocol of the round
   this message belongs to, and the inner message kind.  Constant literals
   on every arm — no [^] — so the ledger's per-message interning is a
   pointer comparison and tagging allocates nothing on the hot path. *)
let tag_of_msg = function
  | A1 { inner = Approver.Init _; _ } -> "A1.INIT"
  | A1 { inner = Approver.Echo _; _ } -> "A1.ECHO"
  | A1 { inner = Approver.Ok _; _ } -> "A1.OK"
  | A2 { inner = Approver.Init _; _ } -> "A2.INIT"
  | A2 { inner = Approver.Echo _; _ } -> "A2.ECHO"
  | A2 { inner = Approver.Ok _; _ } -> "A2.OK"
  | Cn { inner = Whp_coin.First _; _ } -> "COIN.FIRST"
  | Cn { inner = Whp_coin.Second _; _ } -> "COIN.SECOND"

let round_of_msg = function A1 { round; _ } | A2 { round; _ } | Cn { round; _ } -> round

let pp_msg fmt = function
  | A1 { round; inner } -> Format.fprintf fmt "A1[r%d] %a" round Approver.pp_msg inner
  | A2 { round; inner } -> Format.fprintf fmt "A2[r%d] %a" round Approver.pp_msg inner
  | Cn { round; inner } -> Format.fprintf fmt "COIN[r%d] %a" round Whp_coin.pp_msg inner

type action = Broadcast of msg | Decide of int

type round_state = {
  a1 : Approver.t;
  a2 : Approver.t;
  coin : Whp_coin.t;
  mutable propose : int option;   (* set when a1 delivers *)
  mutable coin_val : int option;  (* set when the coin returns *)
  mutable a2_input : bool;        (* whether we already fed a2 *)
  mutable completed : bool;       (* a2 delivered and est updated *)
}

(* Context shared by all n instances of one run: the ground-truth
   committee directory and the validation memos.  One process's view of a
   committee or a verified certificate is every process's view (they are
   pure functions of the keyring and the message bytes), so sharing them
   across instances changes no observable behaviour and removes the
   per-process O(n) membership state that capped runs at bench-scale n. *)
type ctx = {
  dir : Sample.Directory.t;
  acache : Approver.cache;
  ccache : Whp_coin.cache;
}

let make_ctx ~keyring ~params () =
  {
    dir = Sample.Directory.create keyring ~lambda:params.Params.lambda;
    acache = Approver.cache ();
    ccache = Whp_coin.cache ();
  }

(* Round states by round number.  Any round from 0 up is a key, since a
   Byzantine message may name any such round (no per-sender round budget
   exists yet), and the hash is the number itself, so a lookup hashes and
   compares nothing polymorphic. *)
module Rounds = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash r = r land max_int
end)

type t = {
  keyring : Vrf.Keyring.t;
  params : Params.t;
  pid : int;
  instance : string;
  ctx : ctx;
  rounds : round_state Rounds.t;
  mutable last_round : int;
  mutable last : round_state;
      (* the round state [round_state] returned last: consecutive
         deliveries mostly name one round, so they skip the table *)
  mutable est : int;
  mutable started : bool;
  mutable round : int;            (* the round we are actively executing *)
  mutable decision : int option;
  mutable decided_round : int option;
}

(* Names its phases; evaluates nothing (Sample.Phase). *)
let new_round_state ctx ~keyring ~params ~pid ~instance r =
  let mk tag = Printf.sprintf "%s/r%d/%s" instance r tag in
  {
    a1 =
      Approver.create ~dir:ctx.dir ~cache:ctx.acache ~keyring ~params ~pid ~instance:(mk "a1") ();
    a2 =
      Approver.create ~dir:ctx.dir ~cache:ctx.acache ~keyring ~params ~pid ~instance:(mk "a2") ();
    coin = Whp_coin.create ~dir:ctx.dir ~cache:ctx.ccache ~keyring ~params ~pid ~instance ~round:r ();
    propose = None;
    coin_val = None;
    a2_input = false;
    completed = false;
  }

let create ?ctx ~keyring ~params ~pid ~instance () =
  let ctx = match ctx with Some c -> c | None -> make_ctx ~keyring ~params () in
  let first = new_round_state ctx ~keyring ~params ~pid ~instance 0 in
  let rounds = Rounds.create 8 in
  Rounds.replace rounds 0 first;
  {
    keyring;
    params;
    pid;
    instance;
    ctx;
    rounds;
    last_round = 0;
    last = first;
    est = 0;
    started = false;
    round = 0;
    decision = None;
    decided_round = None;
  }

let round_state t r =
  if r = t.last_round then t.last
  else begin
    let st =
      match Rounds.find t.rounds r with
      | st -> st
      | exception Not_found ->
          let st =
            new_round_state t.ctx ~keyring:t.keyring ~params:t.params ~pid:t.pid
              ~instance:t.instance r
          in
          Rounds.replace t.rounds r st;
          st
    in
    t.last_round <- r;
    t.last <- st;
    st
  end

(* Direct recursion, so a step that emits nothing allocates nothing. *)
let rec wrap_a1 r = function
  | [] -> []
  | Approver.Broadcast m :: rest -> Broadcast (A1 { round = r; inner = m }) :: wrap_a1 r rest
  | Approver.Deliver _ :: rest -> wrap_a1 r rest

let rec wrap_a2 r = function
  | [] -> []
  | Approver.Broadcast m :: rest -> Broadcast (A2 { round = r; inner = m }) :: wrap_a2 r rest
  | Approver.Deliver _ :: rest -> wrap_a2 r rest

let rec wrap_coin r = function
  | [] -> []
  | Whp_coin.Broadcast m :: rest -> Broadcast (Cn { round = r; inner = m }) :: wrap_coin r rest
  | Whp_coin.Return _ :: rest -> wrap_coin r rest

let rec delivers = function
  | [] -> false
  | Approver.Deliver _ :: _ -> true
  | Approver.Broadcast _ :: rest -> delivers rest

let rec returns = function
  | [] -> false
  | Whp_coin.Return _ :: _ -> true
  | Whp_coin.Broadcast _ :: rest -> returns rest

(* A decided process keeps initiating rounds through decided_round + 1 so
   that every other correct process can reach its own decision (Lemma 6.16:
   they all decide by the next round whp), then turns purely reactive. *)
let still_initiating t r =
  match t.decided_round with None -> true | Some dr -> r <= dr + 1

(* Drive the state machine of round [r] forward as far as local knowledge
   allows, collecting protocol actions.  Called whenever a sub-protocol of
   round [r] makes progress. *)
let rec advance t r : action list =
  if t.round <> r then []
  else begin
    let st = round_state t r in
    let acts = ref [] in
    let emit a = acts := !acts @ a in
    (* Step 2: the coin starts only once the first approver returned. *)
    (match (st.propose, Approver.result st.a1) with
    | None, Some vals ->
        let propose =
          match vals with [ v ] when v <> Approver.bot -> v | _ -> Approver.bot
        in
        st.propose <- Some propose;
        emit (wrap_coin r (Whp_coin.start st.coin))
    | None, None | Some _, _ -> ());
    (* Capture the coin result as soon as the sub-protocol has it. *)
    (match (st.coin_val, Whp_coin.result st.coin) with
    | None, Some c -> st.coin_val <- Some c
    | None, None | Some _, _ -> ());
    (* Step 3: second approver starts after the coin returned. *)
    (match (st.propose, st.coin_val) with
    | Some propose, Some _ when not st.a2_input ->
        st.a2_input <- true;
        emit (wrap_a2 r (Approver.input st.a2 propose))
    | _ -> ());
    (* Step 4: decision / adoption, then the next round. *)
    (match (Approver.result st.a2, st.coin_val) with
    | Some props, Some c when not st.completed ->
        st.completed <- true;
        let non_bot = List.filter (fun v -> v <> Approver.bot) props in
        let decide_acts =
          match (props, non_bot) with
          | [ v ], [ _ ] ->
              (* props = {v}, v <> bot: decide. *)
              t.est <- v;
              if Option.is_none t.decision then begin
                t.decision <- Some v;
                t.decided_round <- Some r;
                [ Decide v ]
              end
              else []
          | _, [] ->
              (* props = {bot} (or, outside the whp guarantees, empty):
                 adopt the coin. *)
              t.est <- c;
              []
          | _, [ v ] ->
              (* props = {v, bot}: adopt v. *)
              t.est <- v;
              []
          | _, v :: _ ->
              (* Outside the whp guarantees (two non-bot values survived
                 the approver): fall back deterministically. *)
              t.est <- v;
              []
        in
        emit decide_acts;
        t.round <- r + 1;
        if still_initiating t (r + 1) then begin
          let next = round_state t (r + 1) in
          emit (wrap_a1 (r + 1) (Approver.input next.a1 t.est));
          emit (advance t (r + 1))
        end
    | _ -> ());
    !acts
  end

let propose t v =
  if v <> 0 && v <> 1 then invalid_arg "Ba.propose: input must be binary";
  if t.started then []
  else begin
    t.started <- true;
    t.est <- v;
    let st = round_state t 0 in
    wrap_a1 0 (Approver.input st.a1 t.est) @ advance t 0
  end

let handle t ~src msg =
  match msg with
  | A1 { round = r; _ } | A2 { round = r; _ } | Cn { round = r; _ } when r < 0 ->
      (* No round below 0 exists: a Byzantine message naming one builds
         no round state and resolves no committee. *)
      []
  | A1 { round = r; inner } ->
      let st = round_state t r in
      let acts = Approver.handle st.a1 ~src inner in
      let wrapped = wrap_a1 r acts in
      if delivers acts then wrapped @ advance t r else wrapped
  | A2 { round = r; inner } ->
      let st = round_state t r in
      let acts = Approver.handle st.a2 ~src inner in
      let wrapped = wrap_a2 r acts in
      if delivers acts then wrapped @ advance t r else wrapped
  | Cn { round = r; inner } ->
      let st = round_state t r in
      let acts = Whp_coin.handle st.coin ~src inner in
      let wrapped = wrap_coin r acts in
      if returns acts then wrapped @ advance t r else wrapped

let decision t = t.decision
let decided_round t = t.decided_round
let current_round t = t.round
let current_est t = t.est
