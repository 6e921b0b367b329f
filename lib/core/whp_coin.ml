type value = { origin : int; out : Vrf.output; origin_cert : Sample.cert }

let compare_value a b =
  let c = Vrf.compare_beta a.out.Vrf.beta b.out.Vrf.beta in
  if c <> 0 then c else Int.compare a.origin b.origin

type msg = First of { value : value } | Second of { value : value; cert : Sample.cert }

let words_of_msg = function
  | First _ -> 2 + Sample.cert_words + 2 (* tag+origin, origin cert, VRF out *)
  | Second _ -> 2 + Sample.cert_words + 2 + Sample.cert_words

let tag_of_msg = function First _ -> "FIRST" | Second _ -> "SECOND"

let pp_msg fmt m =
  let name, v = match m with First { value } -> ("FIRST", value) | Second { value; _ } -> ("SECOND", value) in
  Format.fprintf fmt "%s(origin=%d beta=%s...)" name v.origin
    (Crypto.Hex.encode (String.sub v.out.Vrf.beta 0 4))

type action = Broadcast of msg | Return of int

(* Run-shared validation memo, same discipline as {!Approver.cache}:
   rank-indexed slots per phase ({!Sample.Memo}), each guarding its
   verdict with the message content it validated; any mismatch (a
   Byzantine sender varying the payload per destination) re-verifies in
   full.  Values sit at their origin's FIRST-committee rank, SECOND
   certificates at the sender's SECOND-committee rank; both phases are
   resolved on first use (Sample.Phase). *)
type cache = { c_value : value Sample.Memo.t; c_second : Sample.cert Sample.Memo.t }

let cache () = { c_value = Sample.Memo.create (); c_second = Sample.Memo.create () }

type t = {
  keyring : Vrf.Keyring.t;
  params : Params.t;
  pid : int;
  alpha : string;             (* VRF input generating coin values *)
  first : value Sample.Phase.t;         (* C(FIRST); value verdicts at origin ranks *)
  second : Sample.cert Sample.Phase.t;  (* C(SECOND); certificate verdicts *)
  mutable v : value option;
  first_seen : Sample.Seen.t;  (* FIRST-committee ranks *)
  mutable first_count : int;
  mutable second_member : Sample.cert option;  (* our SECOND certificate when member *)
  mutable sent_second : bool;
  second_seen : Sample.Seen.t; (* SECOND-committee ranks *)
  mutable second_count : int;
  mutable started : bool;
  mutable result : int option;
}

let first_committee_string ~instance ~round = Printf.sprintf "%s/whpcoin/%d/first" instance round
let second_committee_string ~instance ~round = Printf.sprintf "%s/whpcoin/%d/second" instance round
let coin_alpha ~instance ~round = Printf.sprintf "%s/whpcoin/%d/value" instance round

let create ?dir ?cache:copt ~keyring ~params ~pid ~instance ~round () =
  let n = params.Params.n in
  if not (Int.equal n (Vrf.Keyring.n keyring)) then invalid_arg "Whp_coin.create: n mismatch with keyring";
  let dir =
    match dir with
    | Some d ->
        if Sample.Directory.lambda d <> params.Params.lambda then
          invalid_arg "Whp_coin.create: directory lambda mismatch";
        d
    | None -> Sample.Directory.create keyring ~lambda:params.Params.lambda
  in
  let cache = match copt with Some c -> c | None -> cache () in
  {
    keyring;
    params;
    pid;
    alpha = coin_alpha ~instance ~round;
    first = Sample.Phase.create dir cache.c_value ~s:(first_committee_string ~instance ~round);
    second = Sample.Phase.create dir cache.c_second ~s:(second_committee_string ~instance ~round);
    v = None;
    first_seen = Sample.Seen.create ();
    first_count = 0;
    second_member = None;
    sent_second = false;
    second_seen = Sample.Seen.create ();
    second_count = 0;
    started = false;
    result = None;
  }

let lambda t = t.params.Params.lambda
let w t = t.params.Params.w

(* Fires the SECOND broadcast once we are a sampled member and the FIRST
   threshold has been met.  Split out of [handle] because a passive
   instance (created on message receipt, before [start]) can cross the
   threshold before its committee membership is even sampled. *)
let maybe_send_second t =
  match t.second_member with
  | Some cert when (not t.sent_second) && t.first_count >= w t -> begin
      t.sent_second <- true;
      match t.v with
      | None -> assert false (* first_count > 0 implies v is set *)
      | Some v -> [ Broadcast (Second { value = v; cert }) ]
    end
  | Some _ | None -> []

let start t =
  if t.started then []
  else begin
    t.started <- true;
    (* Private sampling: both committee draws happen locally, without
       communication (process replaceability). *)
    let second_cert =
      Sample.sample t.keyring ~pid:t.pid ~s:(Sample.Phase.s t.second) ~lambda:(lambda t)
    in
    if second_cert.Sample.member then t.second_member <- Some second_cert;
    let first_cert =
      Sample.sample t.keyring ~pid:t.pid ~s:(Sample.Phase.s t.first) ~lambda:(lambda t)
    in
    let first_acts =
      if first_cert.Sample.member then begin
        let out = Vrf.Keyring.prove t.keyring t.pid t.alpha in
        let mine = { origin = t.pid; out; origin_cert = first_cert } in
        (match t.v with
        | Some v when compare_value v mine <= 0 -> ()
        | Some _ | None -> t.v <- Some mine);
        [ Broadcast (First { value = mine }) ]
      end
      else []
    in
    (* Catch up: the FIRST threshold may have been crossed while this
       instance was passive. *)
    first_acts @ maybe_send_second t
  end

let same_value (a : value) (b : value) =
  a == b
  || (Int.equal a.origin b.origin
     && String.equal a.out.Vrf.beta b.out.Vrf.beta
     && String.equal a.out.Vrf.proof b.out.Vrf.proof
     && Sample.same_cert a.origin_cert b.origin_cert)

(* A value is valid when its origin is a certified FIRST-committee member
   and the carried VRF output really is VRF_origin(alpha).  Memoized at
   the origin's FIRST-committee rank [r] in the run-shared cache: FIRST
   values are re-broadcast inside every SECOND message, so each distinct
   value is verified once per run instead of once per delivery.  An
   origin outside the committee (rank -1, or no process at all) has no
   valid certificate. *)
let valid_value t r value =
  r >= 0
  &&
  let slots = Sample.Phase.slots t.first in
  match slots.(r) with
  | Sample.Memo.Verdict { key; ok } when same_value value key -> ok
  | Sample.Memo.Verdict _ | Sample.Memo.Unset ->
      let ok =
        Sample.committee_val t.keyring ~s:(Sample.Phase.s t.first) ~lambda:(lambda t)
          ~pid:value.origin value.origin_cert
        && Vrf.Keyring.verify t.keyring ~signer:value.origin t.alpha value.out
      in
      slots.(r) <- Sample.Memo.Verdict { key = value; ok };
      ok

let valid_second t r src cert =
  let slots = Sample.Phase.slots t.second in
  match slots.(r) with
  | Sample.Memo.Verdict { key; ok } when Sample.same_cert cert key -> ok
  | Sample.Memo.Verdict _ | Sample.Memo.Unset ->
      let ok =
        Sample.committee_val t.keyring ~s:(Sample.Phase.s t.second) ~lambda:(lambda t) ~pid:src
          cert
      in
      slots.(r) <- Sample.Memo.Verdict { key = cert; ok };
      ok

let adopt_min t value =
  match t.v with
  | Some v when compare_value v value <= 0 -> ()
  | Some _ | None -> t.v <- Some value

let handle t ~src msg =
  match msg with
  | First { value } ->
      let r = Sample.Phase.rank t.first src in
      if value.origin <> src || r < 0 || Sample.Seen.mem t.first_seen r
         || not (valid_value t r value)
      then []
      else begin
        Sample.Seen.add t.first t.first_seen r;
        t.first_count <- t.first_count + 1;
        adopt_min t value;
        (* Only SECOND-committee members watch the FIRST threshold. *)
        maybe_send_second t
      end
  | Second { value; cert } ->
      let r = Sample.Phase.rank t.second src in
      if r < 0 || Sample.Seen.mem t.second_seen r || not (valid_second t r src cert)
         || not (valid_value t (Sample.Phase.rank t.first value.origin) value)
      then []
      else begin
        Sample.Seen.add t.second t.second_seen r;
        t.second_count <- t.second_count + 1;
        adopt_min t value;
        if t.second_count >= w t && Option.is_none t.result then begin
          match t.v with
          | None -> assert false
          | Some v ->
              let bit = Vrf.beta_lsb v.out.Vrf.beta in
              t.result <- Some bit;
              [ Return bit ]
        end
        else []
      end

let result t = t.result
let current_min t = t.v

(* ----------------- model-checker support (clone/encode) ----------------- *)

(* Keyring, params, directory, cache and committee views are run-wide
   constants shared by clones; only the receive bookkeeping forks. *)
let clone t =
  {
    t with
    first_seen = Sample.Seen.copy t.first_seen;
    second_seen = Sample.Seen.copy t.second_seen;
  }

let enc_int buf i =
  Buffer.add_string buf (string_of_int i);
  Buffer.add_char buf ';'

let enc_bits buf bs =
  List.iter (enc_int buf) (Sample.Seen.to_list bs);
  Buffer.add_char buf '|'

let encode buf t =
  (* The adopted minimum is determined by its origin: VRF outputs are a
     deterministic function of (keyring, origin, alpha). *)
  (match t.v with None -> enc_int buf (-2) | Some v -> enc_int buf v.origin);
  enc_bits buf t.first_seen;
  enc_int buf t.first_count;
  Buffer.add_char buf (if t.sent_second then 'D' else 'd');
  enc_bits buf t.second_seen;
  enc_int buf t.second_count;
  Buffer.add_char buf (if t.started then 'S' else 's');
  match t.result with None -> enc_int buf (-2) | Some b -> enc_int buf b
