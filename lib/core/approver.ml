let bot = -1

type echo_evidence = { pid : int; cert : Sample.cert; signature : string }

type msg =
  | Init of { v : int; cert : Sample.cert }
  | Echo of { v : int; cert : Sample.cert; signature : string }
  | Ok of { v : int; cert : Sample.cert; support : echo_evidence list }

let words_of_msg = function
  | Init _ -> 2 + Sample.cert_words
  | Echo _ -> 2 + Sample.cert_words + 1
  | Ok { support; _ } ->
      2 + Sample.cert_words + (List.length support * (1 + Sample.cert_words + 1))

let tag_of_msg = function Init _ -> "INIT" | Echo _ -> "ECHO" | Ok _ -> "OK"

let pp_msg fmt = function
  | Init { v; _ } -> Format.fprintf fmt "INIT(%d)" v
  | Echo { v; _ } -> Format.fprintf fmt "ECHO(%d)" v
  | Ok { v; support; _ } -> Format.fprintf fmt "OK(%d,|support|=%d)" v (List.length support)

type action = Broadcast of msg | Deliver of int list

(* Run-shared validation memo, one rank-indexed slot array per phase
   string ({!Sample.Memo}).  A broadcast delivers the same physical
   payload to all n destinations, so each slot guards its verdict with
   the message content it validated: a physical-equality hit (the common
   case — one entry per sender per run) skips re-verification outright, a
   byte-equal hit does the same after one comparison, and anything else
   (a Byzantine sender varying its message per destination) falls through
   to the full check.  Verdicts of both polarities are cached; validation
   is deterministic in the bytes, so this changes no observable
   behaviour. *)
type cache = {
  c_init : Sample.cert Sample.Memo.t;
  c_echo : (Sample.cert * string) Sample.Memo.t;
  c_ok : (int * Sample.cert * echo_evidence list) Sample.Memo.t;
}

let cache () =
  { c_init = Sample.Memo.create (); c_echo = Sample.Memo.create (); c_ok = Sample.Memo.create () }

(* A value's echo phase: the run-shared handle of C(<echo,v>) and the
   payload its members sign.  Naming a value costs this much and no
   more: a message is checked against it for rank, dedup and
   certificate before the value's counters exist. *)
type echo = { phase : (Sample.cert * string) Sample.Phase.t; payload : string }

(* A value's receive counters, created by the first INIT or ECHO of the
   value that is accepted.  Dedup sets are committee-rank bitsets (~lambda
   bits), not n-sized arrays: the senders a phase accepts are exactly the
   members of its ground-truth committee (Sample.Directory), so the rank
   is a dense per-phase index. *)
type counters = {
  init_seen : Sample.Seen.t;
  mutable init_count : int;
  mutable echoed : bool;
  echo_seen : Sample.Seen.t;
  mutable echo_count : int;
  (* The first W accepted echoes in arrival order, min(echo_count, W) of
     them: the support of an OK for this value.  Allocated at the first. *)
  mutable ev_pid : int array;
  mutable ev_cert : Sample.cert array;
  mutable ev_sig : string array;
}

type t = {
  keyring : Vrf.Keyring.t;
  params : Params.t;
  pid : int;
  instance : string;
  dir : Sample.Directory.t;
  cache : cache;
  init : Sample.cert Sample.Phase.t;
  ok : (int * Sample.cert * echo_evidence list) Sample.Phase.t;
  echoes : echo option array;
  counts : counters option array;
      (* both indexed by [index v]: bot, 0, 1, the values in ascending
         order, so iterating the slots keeps emitted actions and the
         state encoding in value order *)
  mutable my_input : int option;
  mutable ok_cert : Sample.cert option;
      (* our OK-committee certificate, member or not: sampled when an echo
         threshold first fires after our input *)
  mutable ok_sent : bool;
  ok_seen : Sample.Seen.t;
  mutable ok_count : int;
  mutable ok_values : int array;
      (* values of valid OKs in arrival order, ok_count of them;
         allocated at the first *)
  mutable delivered : int list option;
}

let s_init t = Sample.Phase.s t.init
let s_echo t v = Printf.sprintf "%s/echo/%d" t.instance v
let s_ok t = Sample.Phase.s t.ok
let echo_payload t v = Printf.sprintf "%s/echo-sig/%d" t.instance v

(* The approver's value domain: the binary inputs and bot.  A message
   naming any other value is dropped before it reaches any state. *)
let in_domain v = v = 0 || v = 1 || v = bot
let index v = v + 1

let create ?dir ?cache:copt ~keyring ~params ~pid ~instance () =
  let n = params.Params.n in
  if not (Int.equal n (Vrf.Keyring.n keyring)) then
    invalid_arg "Approver.create: n mismatch with keyring";
  let dir =
    match dir with
    | Some d ->
        if Sample.Directory.lambda d <> params.Params.lambda then
          invalid_arg "Approver.create: directory lambda mismatch";
        d
    | None -> Sample.Directory.create keyring ~lambda:params.Params.lambda
  in
  let cache = match copt with Some c -> c | None -> cache () in
  {
    keyring;
    params;
    pid;
    instance;
    dir;
    cache;
    init = Sample.Phase.create dir cache.c_init ~s:(instance ^ "/init");
    ok = Sample.Phase.create dir cache.c_ok ~s:(instance ^ "/ok");
    echoes = Array.make 3 None;
    counts = Array.make 3 None;
    my_input = None;
    ok_cert = None;
    ok_sent = false;
    ok_seen = Sample.Seen.create ();
    ok_count = 0;
    ok_values = [||];
    delivered = None;
  }

let lambda t = t.params.Params.lambda
let w t = t.params.Params.w
let b t = t.params.Params.b

let echo t v =
  match t.echoes.(index v) with
  | Some e -> e
  | None ->
      let e =
        { phase = Sample.Phase.create t.dir t.cache.c_echo ~s:(s_echo t v); payload = echo_payload t v }
      in
      t.echoes.(index v) <- Some e;
      e

let counters t v =
  match t.counts.(index v) with
  | Some c -> c
  | None ->
      let c =
        {
          init_seen = Sample.Seen.create ();
          init_count = 0;
          echoed = false;
          echo_seen = Sample.Seen.create ();
          echo_count = 0;
          ev_pid = [||];
          ev_cert = [||];
          ev_sig = [||];
        }
      in
      t.counts.(index v) <- Some c;
      c

(* The counters present, in ascending value order. *)
let fold_counts f t acc =
  let acc = ref acc in
  for i = 0 to 2 do
    match t.counts.(i) with Some c -> acc := f (i - 1) c !acc | None -> ()
  done;
  !acc

let own_ok_cert t =
  match t.ok_cert with
  | Some cert -> cert
  | None ->
      let cert = Sample.sample t.keyring ~pid:t.pid ~s:(s_ok t) ~lambda:(lambda t) in
      t.ok_cert <- Some cert;
      cert

(* When the echo threshold for [v] fires after our input and we have not
   yet OK'd any value, sample our OK-committee certificate (once) and, as
   a member, broadcast ok(v) with the W-strong evidence. *)
let maybe_ok t v st =
  match t.my_input with
  | Some _ when (not t.ok_sent) && st.echo_count >= w t ->
      let cert = own_ok_cert t in
      if not cert.Sample.member then []
      else begin
        t.ok_sent <- true;
        let rec support i =
          if i < w t then
            { pid = st.ev_pid.(i); cert = st.ev_cert.(i); signature = st.ev_sig.(i) }
            :: support (i + 1)
          else []
        in
        [ Broadcast (Ok { v; cert; support = support 0 }) ]
      end
  | Some _ | None -> []

let input t v =
  if not (in_domain v) then invalid_arg "Approver.input: value must be 0, 1 or bot";
  match t.my_input with
  | Some _ -> []
  | None ->
      t.my_input <- Some v;
      (* An echo threshold may already have been crossed while this
         instance was passive (messages outran our own activation); emit
         the pending OK now that we have an input. *)
      let pending = fold_counts (fun v st acc -> acc @ maybe_ok t v st) t [] in
      let cert = Sample.sample t.keyring ~pid:t.pid ~s:(s_init t) ~lambda:(lambda t) in
      if cert.Sample.member then Broadcast (Init { v; cert }) :: pending else pending

let maybe_echo t v st =
  if st.echoed || st.init_count < b t + 1 then []
  else begin
    let e = echo t v in
    let cert = Sample.sample t.keyring ~pid:t.pid ~s:(Sample.Phase.s e.phase) ~lambda:(lambda t) in
    if not cert.Sample.member then begin
      (* Not in this value's echo committee: mark handled so we do not
         resample on every further init. *)
      st.echoed <- true;
      []
    end
    else begin
      st.echoed <- true;
      let signature = Vrf.Keyring.sign t.keyring t.pid e.payload in
      [ Broadcast (Echo { v; cert; signature }) ]
    end
  end

(* The validators below take the sender's (or support entry's) rank in
   the phase committee, already checked [>= 0]: a non-member has no valid
   certificate (VRF uniqueness), so its verdict is [false] without a
   memo slot. *)
let valid_init t r src cert =
  let slots = Sample.Phase.slots t.init in
  match slots.(r) with
  | Sample.Memo.Verdict { key; ok } when Sample.same_cert cert key -> ok
  | Sample.Memo.Verdict _ | Sample.Memo.Unset ->
      let ok = Sample.committee_val t.keyring ~s:(s_init t) ~lambda:(lambda t) ~pid:src cert in
      slots.(r) <- Sample.Memo.Verdict { key = cert; ok };
      ok

let valid_echo t e r pid cert signature =
  let slots = Sample.Phase.slots e.phase in
  match slots.(r) with
  | Sample.Memo.Verdict { key = kc, ks; ok }
    when Sample.same_cert cert kc && (signature == ks || String.equal signature ks) ->
      ok
  | Sample.Memo.Verdict _ | Sample.Memo.Unset ->
      let ok =
        Sample.committee_val t.keyring ~s:(Sample.Phase.s e.phase) ~lambda:(lambda t) ~pid cert
        && Vrf.Keyring.verify_sig t.keyring ~signer:pid e.payload signature
      in
      slots.(r) <- Sample.Memo.Verdict { key = (cert, signature); ok };
      ok

let valid_ok_support t e support =
  (* W entries, distinct pids, each a certified member of C(<echo,v>) with a
     valid signature on the echo payload. *)
  List.length support = w t
  &&
  let seen = Sim.Bitset.create (Sample.Phase.size e.phase) in
  List.for_all
    (fun { pid; cert; signature } ->
      let r = Sample.Phase.rank e.phase pid in
      r >= 0 && (not (Sim.Bitset.test_and_set seen r)) && valid_echo t e r pid cert signature)
    support

let valid_ok t r src v cert support =
  let slots = Sample.Phase.slots t.ok in
  match slots.(r) with
  | Sample.Memo.Verdict { key = kv, kc, ksup; ok }
    when Int.equal kv v && kc == cert && ksup == support ->
      ok
  | Sample.Memo.Verdict _ | Sample.Memo.Unset ->
      let ok =
        Sample.committee_val t.keyring ~s:(s_ok t) ~lambda:(lambda t) ~pid:src cert
        && valid_ok_support t (echo t v) support
      in
      slots.(r) <- Sample.Memo.Verdict { key = (v, cert, support); ok };
      ok

(* Bank the [echo_count]-th accepted echo, for [echo_count <= W]. *)
let keep_echo t st pid cert signature =
  let i = st.echo_count - 1 in
  if i = 0 then begin
    st.ev_pid <- Array.make (w t) pid;
    st.ev_cert <- Array.make (w t) cert;
    st.ev_sig <- Array.make (w t) signature
  end;
  st.ev_pid.(i) <- pid;
  st.ev_cert.(i) <- cert;
  st.ev_sig.(i) <- signature

let keep_ok_value t v =
  if t.ok_count = 0 then t.ok_values <- Array.make (Sample.Phase.size t.ok) v;
  t.ok_values.(t.ok_count) <- v;
  t.ok_count <- t.ok_count + 1

let ok_value_set t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.ok_values.(i) :: acc) in
  List.sort_uniq Int.compare (go (t.ok_count - 1) [])

let echo_seen t v r =
  match t.counts.(index v) with Some st -> Sample.Seen.mem st.echo_seen r | None -> false

let handle t ~src msg =
  match msg with
  | (Init { v; _ } | Echo { v; _ } | Ok { v; _ }) when not (in_domain v) -> []
  | Init { v; cert } ->
      (* Rank and certificate before the value's counters: a forged INIT
         leaves no trace. *)
      let r = Sample.Phase.rank t.init src in
      if r < 0 || not (valid_init t r src cert) then []
      else begin
        let st = counters t v in
        if Sample.Seen.mem st.init_seen r then []
        else begin
          Sample.Seen.add t.init st.init_seen r;
          st.init_count <- st.init_count + 1;
          maybe_echo t v st
        end
      end
  | Echo { v; cert; signature } ->
      (* Rank, dedup and certificate before the value's counters. *)
      let e = echo t v in
      let r = Sample.Phase.rank e.phase src in
      if r < 0 || echo_seen t v r || not (valid_echo t e r src cert signature) then []
      else begin
        let st = counters t v in
        Sample.Seen.add e.phase st.echo_seen r;
        st.echo_count <- st.echo_count + 1;
        (* OK support only ever carries the first W echoes, so later
           evidence need not be retained. *)
        if st.echo_count <= w t then keep_echo t st src cert signature;
        maybe_ok t v st
      end
  | Ok { v; cert; support } ->
      let r = Sample.Phase.rank t.ok src in
      if r < 0 || Sample.Seen.mem t.ok_seen r || not (valid_ok t r src v cert support) then []
      else begin
        Sample.Seen.add t.ok t.ok_seen r;
        keep_ok_value t v;
        if t.ok_count = w t && Option.is_none t.delivered then begin
          let set = ok_value_set t in
          t.delivered <- Some set;
          [ Deliver set ]
        end
        else []
      end

let result t = t.delivered

(* ----------------- model-checker support (clone/encode) ----------------- *)

(* The keyring, params, directory, caches and committee views are
   deterministic run-wide constants: clones share them.  Only the mutable
   receive bookkeeping forks. *)
let clone_counters vs =
  {
    vs with
    init_seen = Sample.Seen.copy vs.init_seen;
    echo_seen = Sample.Seen.copy vs.echo_seen;
    ev_pid = Array.copy vs.ev_pid;
    ev_cert = Array.copy vs.ev_cert;
    ev_sig = Array.copy vs.ev_sig;
  }

let clone t =
  {
    t with
    echoes = Array.copy t.echoes;
    counts = Array.map (Option.map clone_counters) t.counts;
    ok_seen = Sample.Seen.copy t.ok_seen;
    ok_values = Array.copy t.ok_values;
  }

let enc_int buf i =
  Buffer.add_string buf (string_of_int i);
  Buffer.add_char buf ';'

let enc_bits buf bs =
  List.iter (enc_int buf) (Sample.Seen.to_list bs);
  Buffer.add_char buf '|'

let encode buf t =
  (* The counter slots are in ascending value order, so the encoding is
     canonical without extra work.  Certificates and signatures are
     deterministic functions of (keyring, instance, pid) and need no
     bytes here; evidence order matters (OK support carries the first W
     echoes) so the pid sequence is encoded, newest first, as are the OK
     values. *)
  (match t.my_input with None -> enc_int buf (-2) | Some v -> enc_int buf v);
  Buffer.add_char buf (if t.ok_sent then 'K' else 'k');
  enc_bits buf t.ok_seen;
  enc_int buf t.ok_count;
  for i = t.ok_count - 1 downto 0 do
    enc_int buf t.ok_values.(i)
  done;
  Buffer.add_char buf '|';
  (match t.delivered with
  | None -> enc_int buf (-2)
  | Some set ->
      List.iter (enc_int buf) set;
      Buffer.add_char buf '!');
  fold_counts
    (fun v vs () ->
      enc_int buf v;
      enc_bits buf vs.init_seen;
      enc_int buf vs.init_count;
      Buffer.add_char buf (if vs.echoed then 'E' else 'e');
      enc_bits buf vs.echo_seen;
      enc_int buf vs.echo_count;
      for i = Int.min vs.echo_count (w t) - 1 downto 0 do
        enc_int buf vs.ev_pid.(i)
      done;
      Buffer.add_char buf '|')
    t ()
