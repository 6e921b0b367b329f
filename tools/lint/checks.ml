(* coinlint's local rules: each one protects an invariant the paper's
   reproduction depends on but no test can cover exhaustively, and each
   decides from one expression or one unit.  See DESIGN.md §6b for the
   rule <-> paper-claim table; deliberate exceptions carry
   [@lint.allow "<rule>"]. *)

open Engine

(* ------------------------- poly-compare ------------------------------- *)

(* Paper stake: the Montgomery kernel keeps residues canonical so that
   structural equality of crypto values is meaningful at all; polymorphic
   compare/hash on anything structured silently depends on representation
   and breaks the moment a cached or non-canonical form appears. *)

let poly_banned =
  [
    ([ "compare" ], "use a typed comparator (Int.compare, String.compare, Bigint.compare, ...)");
    ([ "Hashtbl"; "hash" ], "polymorphic hashing is representation-dependent; hash a canonical encoding instead");
    ([ "List"; "mem" ], "use List.exists with a typed equality");
    ([ "List"; "memq" ], "physical equality is representation-dependent; use a typed equality");
    ([ "List"; "assoc" ], "use List.find_map with a typed key equality");
    ([ "List"; "assoc_opt" ], "use List.find_map with a typed key equality");
    ([ "List"; "mem_assoc" ], "use List.exists with a typed key equality");
  ]

(* Modules whose values are structured crypto/protocol data: comparing
   them with [=]/[<>] must go through their dedicated equality
   (Bigint.elem_equal, Vrf.compare_beta, ...). *)
let crypto_modules =
  [ "Bigint"; "Bignum"; "Rsa"; "Vrf"; "Dleq_vrf"; "Group"; "Gf"; "Poly"; "Shamir" ]

let flatten lid = try Longident.flatten lid with _ -> []

let mentions_crypto ctx e =
  let touches path = List.exists (fun c -> List.mem c crypto_modules) path in
  exists_subexpr
    (fun (e : Typedtree.expression) ->
      match e.exp_desc with
      | Texp_ident (p, _, _) -> touches (normalize ctx p)
      | Texp_construct ({ txt; _ }, _, _) | Texp_field (_, { txt; _ }, _) -> touches (flatten txt)
      | _ -> false)
    e

let structured_literal (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_record _ | Texp_tuple _ -> true
  | Texp_construct (_, { cstr_name = "::"; _ }, _ :: _) -> true
  | _ -> false

let poly_compare =
  let rule = "poly-compare" in
  let on_expr ctx (e : Typedtree.expression) =
    (match ident_path ctx e with
    | Some path -> (
        match List.find_opt (fun (p, _) -> path_equal p path) poly_banned with
        | Some (p, hint) ->
            report ctx ~rule ~loc:e.exp_loc (Printf.sprintf "polymorphic %s: %s" (dots p) hint)
        | None -> ())
    | None -> ());
    match e.exp_desc with
    | Texp_apply (f, [ (_, Some a); (_, Some b) ]) -> (
        match ident_path ctx f with
        | Some ([ "=" ] | [ "<>" ]) ->
            let suspect x = mentions_crypto ctx x || structured_literal x in
            if suspect a || suspect b then
              report ctx ~rule ~loc:e.exp_loc
                "polymorphic =/<> on structured crypto/protocol data: use the type's dedicated \
                 equality (Bigint.elem_equal, String.equal, ...)"
        | Some _ | None -> ())
    | _ -> ()
  in
  {
    name = rule;
    summary =
      "forbid polymorphic compare/hash/mem/assoc, and =/<> on structured crypto values \
       (canonical-representation equality only)";
    make = (fun ctx -> { no_hooks with on_expr = on_expr ctx });
  }

(* -------------------------- determinism ------------------------------- *)

(* Paper stake: coin success rates (Lemma 4.8) and committee concentration
   (Claim 1) are measured over fixed-seed simulations; any ambient
   randomness or wall-clock read inside the simulator or the protocol core
   makes those measurements unreproducible.  All randomness must flow from
   the seeded RNG (Crypto.Rng / Crypto.Drbg).  Paths are resolved, so
   `module R = Random`, `open Sys` and friends do not evade the rule. *)

let determinism_dirs = [ "lib/sim/"; "lib/core/" ]

let determinism =
  let rule = "determinism" in
  let on_expr ctx (e : Typedtree.expression) =
    match ident_path ctx e with
    | Some path ->
        let say what =
          report ctx ~rule ~loc:e.exp_loc (Printf.sprintf "resolves to %s: %s" (dots path) what)
        in
        if
          ends_with ~suffix:[ "Random"; "self_init" ] path
          || ends_with ~suffix:[ "Random"; "State"; "make_self_init" ] path
        then say "Random self-seeding is never deterministic; use the seeded sim RNG"
        else if in_dirs ctx.rel determinism_dirs then begin
          match path with
          | "Random" :: _ ->
              say
                "ambient randomness in deterministic code; all randomness must flow from the \
                 seeded sim RNG (Crypto.Rng)"
          | _ ->
              if
                List.exists (path_equal path)
                  [ [ "Sys"; "time" ]; [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ] ]
              then say "wall-clock read in deterministic code; use the simulator's virtual time"
        end
    | None -> ()
  in
  {
    name = rule;
    summary =
      "ban ambient randomness (Random.*) and wall-clock reads (Sys.time, Unix.gettimeofday) \
       inside lib/sim and lib/core, and Random self-seeding everywhere";
    make = (fun ctx -> { no_hooks with on_expr = on_expr ctx });
  }

(* ------------------------- secret-hygiene ----------------------------- *)

(* Paper stake: the delayed-adaptive adversary (Definition 2.1) corrupts
   on message content; leaking RSA/VRF secret material into logs,
   printers or observability probes hands a real adversary exactly the
   oracle the model denies it.  Secrets may be keygen'd, used to sign and
   fingerprinted -- never rendered. *)

let secret_names = [ "sk"; "sks"; "secret"; "secrets"; "secret_key"; "skey"; "priv"; "private_key" ]

let is_sink_path path =
  match path with
  | "Printf" :: _ | "Format" :: _ | "Obs" :: _ -> true
  | _ ->
      let last = last_of path in
      starts_with ~prefix:"pp" last || starts_with ~prefix:"show" last
      || starts_with ~prefix:"print_" last
      || starts_with ~prefix:"prerr_" last
      || String.equal last "probe"

let mentions_secret ctx e =
  exists_subexpr
    (fun (e : Typedtree.expression) ->
      match e.exp_desc with
      | Texp_ident (p, _, _) -> List.mem (last_of (normalize ctx p)) secret_names
      | Texp_field (_, _, lbl) -> List.mem lbl.lbl_name secret_names
      | _ -> false)
    e

let secret_hygiene =
  let rule = "secret-hygiene" in
  let on_expr ctx (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (f, args) -> (
        match ident_path ctx f with
        | Some path when is_sink_path path ->
            if
              List.exists (fun (_, a) -> Option.fold ~none:false ~some:(mentions_secret ctx) a) args
            then
              report ctx ~rule ~loc:e.exp_loc
                (Printf.sprintf
                   "secret material reaches a print/observability sink (resolves to %s): render \
                    a fingerprint or public part instead"
                   (dots path))
        | Some _ | None -> ())
    | _ -> ()
  in
  {
    name = rule;
    summary =
      "flag print/pp/show/Printf/Format/Obs sinks whose arguments mention RSA or VRF secret-key \
       values";
    make = (fun ctx -> { no_hooks with on_expr = on_expr ctx });
  }

(* ------------------------- fragile-match ------------------------------ *)

(* Paper stake: protocol handlers must be total over the message and
   action alphabets.  A catch-all [_] branch over [msg]/[action] compiles
   silently when a constructor is added -- and silently drops the new
   message, which in an asynchronous protocol is indistinguishable from
   adversarial message loss.  Constructors are matched as spelled, so
   the rule also covers the action types handler-exhaustiveness does not
   resolve. *)

let ctor_groups =
  [
    [ "A1"; "A2"; "Cn" ];            (* Ba.msg *)
    [ "Init"; "Echo"; "Ok" ];        (* Approver.msg *)
    [ "First"; "Second" ];           (* Coin.msg / Whp_coin.msg *)
    [ "Broadcast"; "Decide" ];       (* Ba.action *)
    [ "Broadcast"; "Deliver" ];      (* Approver.action *)
    [ "Broadcast"; "Return" ];       (* coin actions *)
  ]

let protocol_modules = [ "Coin"; "Whp_coin"; "Approver"; "Ba" ]
let protocol_ctors = List.sort_uniq String.compare (List.concat ctor_groups)

(* Constructors whose bare name collides with common stdlib types and so
   only count when qualified or corroborated by a group sibling. *)
let ambiguous_ctors = [ "Ok" ]

(* (name, qualified-with-a-protocol-module) for every protocol
   constructor appearing anywhere in a pattern. *)
let pattern_ctors (root : _ Typedtree.general_pattern) =
  let acc = ref [] in
  let super = Tast_iterator.default_iterator in
  let pat (type k) it (p : k Typedtree.general_pattern) =
    (match p.pat_desc with
    | Tpat_construct ({ txt; _ }, _, _, _) ->
        let path = flatten txt in
        let name = last_of path in
        if List.mem name protocol_ctors then
          acc := (name, List.exists (fun m -> List.mem m protocol_modules) path) :: !acc
    | _ -> ());
    super.pat it p
  in
  let it = { super with pat } in
  it.pat it root;
  !acc

(* Only `_` or a variable, possibly aliased, is a catch-all here;
   handler-exhaustiveness's [catch_all] also counts or-patterns. *)
let rec is_catch_all : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_alias (p, _, _) -> is_catch_all p
  | Tpat_value p -> is_catch_all (p :> Typedtree.value Typedtree.general_pattern)
  | _ -> false

let fragile (cases : _ Typedtree.case list) =
  List.exists (fun (c : _ Typedtree.case) -> is_catch_all c.c_lhs) cases
  &&
  let ctors = List.concat_map (fun (c : _ Typedtree.case) -> pattern_ctors c.c_lhs) cases in
  let names = List.sort_uniq String.compare (List.map fst ctors) in
  List.exists snd ctors
  || List.exists (fun g -> List.length (List.filter (fun n -> List.mem n g) names) >= 2) ctor_groups
  || List.exists (fun n -> not (List.mem n ambiguous_ctors)) names

let fragile_match =
  let rule = "fragile-match" in
  let on_expr ctx (e : Typedtree.expression) =
    let hit =
      match e.exp_desc with
      | Texp_match (_, cases, _) -> fragile cases
      | Texp_function { cases; _ } -> fragile cases
      | _ -> false
    in
    if hit then
      report ctx ~rule ~loc:e.exp_loc
        "catch-all branch over a protocol msg/action type: enumerate the constructors so adding \
         one forces a handler update"
  in
  {
    name = rule;
    summary =
      "forbid catch-all _ branches in matches over the protocol msg/action constructor alphabets";
    make = (fun ctx -> { no_hooks with on_expr = on_expr ctx });
  }

(* ------------------------- hashtbl-iter ------------------------------- *)

(* Paper stake: Hashtbl.iter/fold order is unspecified; if it reaches
   emitted messages or probes, byte-level run reproducibility (and with it
   every measured whp claim) is hostage to hashing internals.  Inside the
   protocol core and baselines, iterate sorted keys or a deterministic
   structure instead. *)

let hashtbl_iter =
  let rule = "hashtbl-iter" in
  let banned = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ] in
  let on_expr ctx (e : Typedtree.expression) =
    match ident_path ctx e with
    | Some [ "Hashtbl"; fn ] when List.mem fn banned ->
        report ctx ~rule ~loc:e.exp_loc
          (Printf.sprintf
             "Hashtbl.%s iterates in unspecified order inside protocol state: iterate sorted keys \
              (or a deterministic structure) so ordering never reaches messages or probes"
             fn)
    | Some _ | None -> ()
  in
  {
    name = rule;
    summary =
      "flag Hashtbl.iter/fold/to_seq over protocol state in lib/core and lib/baselines \
       (unspecified order must not reach messages or probes)";
    make =
      (fun ctx ->
        if in_dirs ctx.rel [ "lib/core/"; "lib/baselines/" ] then
          { no_hooks with on_expr = on_expr ctx }
        else no_hooks);
  }

(* ------------------------ domain-hygiene ------------------------------ *)

(* Paper stake: the estimator campaigns are byte-identical across worker
   counts only because all parallelism flows through lib/exec's audited
   pool (index sharding, per-worker keyring clones, ordered merge) — see
   DESIGN.md "Parallel campaign harness".  A stray Domain.spawn elsewhere
   reintroduces scheduling-dependent behaviour; ad-hoc Mutex/Atomic use
   outside the pool (and lib/bignum, which owns the kernel scratch
   discipline) hides shared mutable state the determinism argument does
   not cover.  Obs.Metrics.Sharded's claim guard is the one Atomic
   outside those dirs, allowed for its one file only. *)

let exec_dirs = [ "lib/exec/" ]
let sync_ok rel = in_dirs rel [ "lib/exec/"; "lib/bignum/"; "lib/obs/metrics.ml" ]

let domain_hygiene =
  let rule = "domain-hygiene" in
  let on_expr ctx (e : Typedtree.expression) =
    match ident_path ctx e with
    | Some ("Domain" :: fn :: _)
      when List.mem fn [ "spawn"; "DLS" ] && not (in_dirs ctx.rel exec_dirs) ->
        report ctx ~rule ~loc:e.exp_loc
          (Printf.sprintf
             "resolves to Domain.%s outside lib/exec: parallelism must go through the audited \
              Exec pool (deterministic sharding, per-worker state)"
             fn)
    | Some ((("Mutex" | "Atomic" | "Condition" | "Semaphore") as m) :: _) when not (sync_ok ctx.rel)
      ->
        report ctx ~rule ~loc:e.exp_loc
          (Printf.sprintf
             "resolves to %s.* outside lib/exec, lib/bignum and the audited Obs.Metrics.Sharded \
              claim guard: shared mutable state across domains belongs behind the audited Exec \
              abstraction"
             m)
    | Some _ | None -> ()
  in
  {
    name = rule;
    summary =
      "confine Domain.spawn/DLS to lib/exec and Mutex/Atomic/Condition/Semaphore to \
       lib/exec+lib/bignum plus the audited Obs.Metrics.Sharded claim guard";
    make = (fun ctx -> { no_hooks with on_expr = on_expr ctx });
  }

(* ------------------------- ignored-verify ----------------------------- *)

(* Paper stake: Algorithm 1's "verify" step and the committee-credential
   checks (Section 5, S1-S6) are the whole defence against forged VRF
   draws and fake committee members.  A verification whose boolean is
   computed and then dropped — `ignore`d, bound to `_`, or sequenced
   away — is indistinguishable at runtime from one that was never made.
   The result must flow into a branch or be returned. *)

let verify_fns =
  [
    [ "Keyring"; "verify" ];
    [ "Keyring"; "verify_sig" ];
    [ "Dleq_vrf"; "verify" ];
    [ "Dleq_vrf"; "verify_sig" ];
    [ "Rsa"; "verify" ];
    [ "Rsa"; "verify'" ];
  ]

let ignored_verify =
  let rule = "ignored-verify" in
  let verify_call ctx (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (f, _) -> (
        match ident_path ctx f with
        | Some path when List.exists (fun suffix -> ends_with ~suffix path) verify_fns -> Some path
        | Some _ | None -> None)
    | _ -> None
  in
  (* The dropped call's own attributes (and the binding's, for `let _ =`)
     count towards the allow decision: the natural place to write the
     allow is on the verification itself, which the walk only enters
     after the enclosing context has been checked. *)
  let dropped ctx ~attrs (call : Typedtree.expression) how =
    match verify_call ctx call with
    | Some path ->
        let frames = List.filter_map allow_payload (call.exp_attributes @ attrs) in
        if not (allowed_in (frames @ ctx.allows) rule) then
          add ctx ~rule ~symbol:ctx.sym ~loc:call.exp_loc
            (Printf.sprintf
               "result of %s is dropped (%s): the verification outcome must flow into a branch or \
                be returned"
               (dots path) how)
    | None -> ()
  in
  let discarded_vb ctx (vb : Typedtree.value_binding) =
    match vb.vb_pat.pat_desc with
    | Tpat_any -> dropped ctx ~attrs:vb.vb_attributes vb.vb_expr "bound to _"
    | Tpat_var (_, { txt; _ }) when String.length txt > 0 && txt.[0] = '_' ->
        dropped ctx ~attrs:vb.vb_attributes vb.vb_expr ("bound to " ^ txt)
    | _ -> ()
  in
  let on_expr ctx (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_sequence (a, _) -> dropped ctx ~attrs:[] a "sequenced away with ;"
    | Texp_let (_, vbs, _) -> List.iter (discarded_vb ctx) vbs
    | Texp_apply (f, args) -> (
        match ident_path ctx f with
        | Some ([ "ignore" ] | [ "Fun"; "ignore" ]) ->
            List.iter
              (fun (_, a) -> Option.iter (fun a -> dropped ctx ~attrs:[] a "passed to ignore") a)
              args
        | Some _ | None -> ())
    | _ -> ()
  in
  let on_item ctx (si : Typedtree.structure_item) =
    match si.str_desc with Tstr_value (_, vbs) -> List.iter (discarded_vb ctx) vbs | _ -> ()
  in
  {
    name = rule;
    summary =
      "the result of Keyring.verify/verify_sig, Dleq_vrf.verify and Rsa.verify must reach a \
       branch or be returned — never ignore/let _/; it away";
    make = (fun ctx -> { no_hooks with on_expr = on_expr ctx; on_item = on_item ctx });
  }

(* --------------------- handler-exhaustiveness ------------------------- *)

(* Paper stake: S1-S6 message validation assumes every protocol message
   is examined.  A `_` arm over a protocol `msg` type compiles silently
   when a constructor is added and silently swallows the new message —
   indistinguishable from adversarial loss.  The type system already
   rejects missing constructors (partial matches are errors under the
   strict profile); this rule closes the complementary hole: the
   constructor-swallowing wildcard.  Within the protocol modules
   themselves, every `msg` constructor must be consumed by the
   step/handle function, and `tag_of_msg` — the observability bridge's
   identity map — must stay a total one-constructor-per-arm match so
   per-tag metrics never silently merge. *)

let rec catch_all : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_alias (p, _, _) -> catch_all p
  | Tpat_or (a, b, _) -> catch_all a || catch_all b
  | Tpat_value p -> catch_all (p :> Typedtree.value Typedtree.general_pattern)
  | _ -> false

(* Which protocol module owns this `msg` type, if any: a qualified path
   names it directly; a bare local `msg` belongs to the unit scanned. *)
let msg_owner ctx ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      match normalize ctx p with
      | [ "msg" ] -> if List.mem ctx.modname protocol_modules then Some ctx.modname else None
      | path -> (
          match List.rev path with
          | "msg" :: owner :: _ when List.mem owner protocol_modules -> Some owner
          | _ -> None))
  | _ -> None

type arm_shape = Arm_ctor of string | Arm_other

let rec arm_shape : type k. k Typedtree.general_pattern -> arm_shape =
 fun p ->
  match p.pat_desc with
  | Tpat_construct (_, c, _, _) -> Arm_ctor c.cstr_name
  | Tpat_alias (p, _, _) -> arm_shape p
  | Tpat_value p -> arm_shape (p :> Typedtree.value Typedtree.general_pattern)
  | _ -> Arm_other

(* The case list a tag_of_msg-style definition matches over: either
   `function C1 .. | C2 ..` directly, or `fun m -> match m with ...`. *)
let rec msg_case_shapes ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_lhs; c_rhs; _ } ]; _ } when catch_all c_lhs ->
      msg_case_shapes ctx c_rhs
  | Texp_function { cases = c :: _ as cases; _ } when msg_owner ctx c.c_lhs.pat_type <> None ->
      Some (List.map (fun (c : _ Typedtree.case) -> arm_shape c.c_lhs) cases)
  | Texp_match (scrut, cases, _) when msg_owner ctx scrut.exp_type <> None ->
      Some (List.map (fun (c : _ Typedtree.case) -> arm_shape c.c_lhs) cases)
  | _ -> None

let handler_exhaustiveness =
  let rule = "handler-exhaustiveness" in
  let make ctx =
    (* declared `msg` constructors of this unit (protocol modules only) *)
    let declared = ref None in
    let has_handler = ref false in
    let consumed = ref [] in
    let tag_findings = ref [] in
    let swallow ~loc owner cases =
      if List.exists (fun (c : _ Typedtree.case) -> catch_all c.c_lhs) cases then
        report ctx ~rule ~loc
          (Printf.sprintf
             "catch-all arm over %s.msg: a `_` silently swallows any constructor added later; \
              enumerate the constructors"
             owner)
    in
    let on_expr (e : Typedtree.expression) =
      (* Inside tag_of_msg the dedicated totality check below reports with
         a sharper message. *)
      if not (String.equal ctx.sym "tag_of_msg") then
        match e.exp_desc with
        | Texp_match (scrut, cases, _) ->
            Option.iter
              (fun owner -> swallow ~loc:e.exp_loc owner cases)
              (msg_owner ctx scrut.exp_type)
        | Texp_function { cases = [ c ]; _ } when catch_all c.c_lhs -> ()  (* a plain lambda *)
        | Texp_function { cases = c :: _ as cases; _ } ->
            Option.iter
              (fun owner -> swallow ~loc:e.exp_loc owner cases)
              (msg_owner ctx c.c_lhs.pat_type)
        | _ -> ()
    in
    let record_consumed (vb : Typedtree.value_binding) =
      let super = Tast_iterator.default_iterator in
      let pat (type k) it (p : k Typedtree.general_pattern) =
        (match p.pat_desc with
        | Tpat_construct (_, c, _, _) when msg_owner ctx c.cstr_res = Some ctx.modname ->
            consumed := c.cstr_name :: !consumed
        | _ -> ());
        super.pat it p
      in
      let it = { super with pat } in
      it.expr it vb.vb_expr
    in
    let check_tag_of_msg (vb : Typedtree.value_binding) =
      match msg_case_shapes ctx vb.vb_expr with
      | None -> ()
      | Some shapes ->
          let cap = capture ctx ~rule ~loc:vb.vb_loc in
          let tags = List.filter_map (function Arm_ctor c -> Some c | Arm_other -> None) shapes in
          let finding () =
            if List.length tags <> List.length shapes then
              cap
                "tag_of_msg must be a total one-constructor-per-arm match (no wildcard or \
                 or-pattern arms): per-tag metrics must never merge constructors"
            else
              Option.iter
                (fun (ctors, _) ->
                  List.iter
                    (fun c ->
                      if not (List.mem c tags) then
                        cap (Printf.sprintf "tag_of_msg has no arm for constructor %s of msg" c))
                    ctors)
                !declared
          in
          tag_findings := finding :: !tag_findings
    in
    let on_item (si : Typedtree.structure_item) =
      match si.str_desc with
      | Tstr_type (_, decls) ->
          List.iter
            (fun (d : Typedtree.type_declaration) ->
              match d.typ_kind with
              | Ttype_variant ctors when String.equal d.typ_name.txt "msg" ->
                  declared :=
                    Some
                      ( List.map
                          (fun (c : Typedtree.constructor_declaration) -> c.cd_name.txt)
                          ctors,
                        capture ctx ~rule ~loc:d.typ_loc )
              | _ -> ())
            decls
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match vb_name vb.vb_pat with
              | Some ("handle" | "step") ->
                  has_handler := true;
                  record_consumed vb
              | Some "tag_of_msg" -> check_tag_of_msg vb
              | Some _ | None -> ())
            vbs
      | _ -> ()
    in
    let on_done () =
      (match !declared with
      | Some (ctors, cap) ->
          if !has_handler then
            List.iter
              (fun c ->
                if not (List.mem c !consumed) then
                  cap
                    (Printf.sprintf
                       "constructor %s of msg is never consumed by the module's handle/step \
                        function: the message would be silently dropped"
                       c))
              ctors
          else cap "protocol module declares a msg type but no handle/step function consumes it"
      | None -> ());
      List.iter (fun f -> f ()) (List.rev !tag_findings)
    in
    if List.mem ctx.modname protocol_modules then { on_expr; on_item; on_done }
    else { no_hooks with on_expr }
  in
  {
    name = rule;
    summary =
      "matches over protocol msg types must not swallow constructors with `_`; every msg \
       constructor must be consumed by handle/step, and tag_of_msg must be total, one \
       constructor per arm";
    make;
  }

(* ---------------------------- span-balance ---------------------------- *)

(* Paper stake: the observability layer's spans time protocol phases; an
   opened span that is never closed corrupts every duration downstream
   of it.  Begin/end may legitimately live in different functions
   (attach/finish callback pairs), so the obligation is per unit.
   Prefer Obs.Span.with_span, which cannot unbalance. *)

let span_balance =
  let rule = "span-balance" in
  let make ctx =
    let begins = ref [] and ends = ref 0 in
    let on_expr (e : Typedtree.expression) =
      match ident_path ctx e with
      | Some path when ends_with ~suffix:[ "Span"; "begin_span" ] path ->
          begins := capture ctx ~rule ~loc:e.exp_loc :: !begins
      | Some path when ends_with ~suffix:[ "Span"; "end_span" ] path -> incr ends
      | Some _ | None -> ()
    in
    let on_done () =
      if !ends = 0 then
        List.iter
          (fun cap ->
            cap
              "begin_span with no end_span anywhere in this compilation unit: the span never \
               closes (prefer Obs.Span.with_span)")
          !begins
    in
    { no_hooks with on_expr; on_done }
  in
  {
    name = rule;
    summary =
      "every Obs.Span.begin_span must be matched by an end_span in the same compilation unit \
       (prefer with_span)";
    make;
  }

let all =
  [
    poly_compare;
    determinism;
    secret_hygiene;
    fragile_match;
    hashtbl_iter;
    domain_hygiene;
    ignored_verify;
    handler_exhaustiveness;
    span_balance;
  ]
