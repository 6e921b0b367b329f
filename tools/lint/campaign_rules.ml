(* coinlint's parallel-campaign rules: what runs on an Exec worker domain
   shares no mutable state with another domain.

     domain-escape        Exec.map is referenced only inside
                          Analysis.campaign (and lib/exec, the pool
                          itself).  Every function-typed argument of an
                          Exec.map or campaign call runs on a worker and
                          is checked on its own: a value bound outside
                          it whose type Mut_types classifies as mutable
                          may appear there only as the argument of a
                          sanctioned hand-off — Keyring.clone,
                          Metrics.Sharded.claim, or xs.(w) indexed by the
                          closure's worker slot.  The then-branch of
                          `if Exec.resolve_jobs jobs <= 1` is exempt: one
                          worker is the calling domain.
     global-mutable-reach no toplevel binding of a mutable type in
                          lib/sim, lib/baselines, lib/vrf and lib/core,
                          and no lazy value under lib/.  Calls are not
                          followed, so whatever a worker reaches must be
                          immutable where it lives.

   Both are local: one argument, one binding, one expression.  A capture
   of function type classifies as Unknown and is not checked — a closure
   over mutable state handed over by name evades both rules (DESIGN.md
   §6b). *)

open Engine

let sanctioned = [ [ "Keyring"; "clone" ]; [ "Sharded"; "claim" ] ]

let is_campaign ctx path =
  ends_with ~suffix:[ "Analysis"; "campaign" ] path
  || (path_equal path [ "campaign" ] && String.equal ctx.modname "Analysis")

let is_mut ctx ty = match classify ctx ty with Mut_types.Mut why -> Some why | _ -> None

let rec describe (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Path.last p
  | Texp_field (r, _, lbl) -> describe r ^ "." ^ lbl.lbl_name
  | _ -> "value"

(* `Exec.resolve_jobs _ <= 1`: the single-worker guard. *)
let single_worker_guard ctx (cond : Typedtree.expression) =
  match cond.exp_desc with
  | Texp_apply
      (op, [ (_, Some lhs); (_, Some { Typedtree.exp_desc = Texp_constant (Const_int 1); _ }) ])
    -> (
      ident_path ctx op = Some [ "<=" ]
      &&
      match lhs.exp_desc with
      | Texp_apply (f, _) ->
          Option.fold ~none:false
            ~some:(ends_with ~suffix:[ "Exec"; "resolve_jobs" ])
            (ident_path ctx f)
      | _ -> false)
  | _ -> false

(* Check one `fun` handed to a worker.  [shared e] holds when [e] is a
   value bound outside the closure, a part destructured from one (match
   arm or let pattern), or a field projection of either; such a value of
   mutable type is reported unless it sits in a sanctioned hand-off. *)
let check_closure ctx ~rule (lam : Typedtree.expression) =
  let slot =
    match lam.exp_desc with
    | Texp_function { cases = [ { c_lhs = { pat_desc = Tpat_var (id, _); _ }; _ } ]; _ } -> Some id
    | _ -> None
  in
  let super = Tast_iterator.default_iterator in
  let bound = Hashtbl.create 16 and destructured = Hashtbl.create 4 in
  let binders tbl =
    let pat (type k) it (p : k Typedtree.general_pattern) =
      (match p.pat_desc with
      | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Hashtbl.replace tbl (Ident.unique_name id) ()
      | _ -> ());
      super.pat it p
    in
    { super with pat }
  in
  (let it = binders bound in
   it.expr it lam);
  let rec shared (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        let k = Ident.unique_name id in
        (not (Hashtbl.mem bound k)) || Hashtbl.mem destructured k
    | Texp_ident _ -> true (* a toplevel value of another module *)
    | Texp_field (r, _, _) -> shared r
    | _ -> false
  in
  let destructure (p : _ Typedtree.general_pattern) =
    let it = binders destructured in
    it.pat it p
  in
  let handed_off path args =
    match args with
    | (_, Some a) :: _ when List.exists (fun suffix -> ends_with ~suffix path) sanctioned ->
        shared a
    | [ (_, Some xs); (_, Some { Typedtree.exp_desc = Texp_ident (Path.Pident i, _, _); _ }) ]
      when path_equal path [ "Array"; "get" ] ->
        Option.fold ~none:false ~some:(Ident.same i) slot && shared xs
    | _ -> false
  in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    match e.exp_desc with
    | (Texp_ident _ | Texp_field _) when shared e ->
        Option.iter
          (fun why ->
            report ctx ~rule ~loc:e.exp_loc
              (Printf.sprintf
                 "mutable value %s (%s) is shared with a worker domain outside a sanctioned \
                  hand-off (Keyring.clone, Metrics.Sharded.claim, xs.(w))"
                 (describe e) why))
          (is_mut ctx e.exp_type)
    | Texp_apply (f, (_ :: rest as args))
      when handed_off (Option.value ~default:[] (ident_path ctx f)) args ->
        (* the first argument is handed off; the others are ordinary *)
        List.iter (fun (_, a) -> Option.iter (it.expr it) a) rest
    | Texp_match (scrut, cases, _) when shared scrut ->
        List.iter (fun (c : _ Typedtree.case) -> destructure c.c_lhs) cases;
        List.iter (it.case it) cases
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            if shared vb.vb_expr then destructure vb.vb_pat else it.expr it vb.vb_expr)
          vbs;
        it.expr it body
    | Texp_ifthenelse (cond, _, Some other) when single_worker_guard ctx cond ->
        it.expr it cond;
        it.expr it other
    | _ -> super.expr it e
  in
  let it = { super with expr } in
  it.expr it lam

let check_worker_arg ctx ~rule (arg : Typedtree.expression) =
  match arg.exp_desc with
  | Texp_function _ -> check_closure ctx ~rule arg
  | Texp_ident _ -> ()
  | Texp_apply ({ exp_desc = Texp_ident _; _ }, args) ->
      List.iter
        (fun (_, a) ->
          Option.iter
            (fun (a : Typedtree.expression) ->
              Option.iter
                (fun why ->
                  report ctx ~rule ~loc:a.exp_loc
                    (Printf.sprintf "partial application hands mutable %s (%s) to a worker domain"
                       (describe a) why))
                (is_mut ctx a.exp_type))
            a)
        args
  | _ ->
      report ctx ~rule ~loc:arg.exp_loc
        "a worker argument must be a fun, a named function or a partial application of one"

let domain_escape =
  let rule = "domain-escape" in
  let on_expr ctx (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident _ -> (
        match ident_path ctx e with
        | Some path
          when ends_with ~suffix:[ "Exec"; "map" ] path
               && not (String.equal ctx.modname "Analysis" && String.equal ctx.sym "campaign") ->
            report ctx ~rule ~loc:e.exp_loc
              "Exec.map outside Analysis.campaign: campaigns go through Analysis.campaign, the \
               one place that builds each worker's context"
        | Some _ | None -> ())
    | Texp_apply (f, args) -> (
        match ident_path ctx f with
        | Some path when ends_with ~suffix:[ "Exec"; "map" ] path || is_campaign ctx path ->
            List.iter
              (fun (_, a) ->
                match a with
                | Some (a : Typedtree.expression) -> (
                    match Types.get_desc a.exp_type with
                    | Tarrow _ -> check_worker_arg ctx ~rule a
                    | _ -> ())
                | None -> ())
              args
        | Some _ | None -> ())
    | _ -> ()
  in
  {
    name = rule;
    summary =
      "Exec.map only inside Analysis.campaign; a worker closure there or at a campaign call \
       reaches mutable state only through Keyring.clone, Metrics.Sharded.claim or xs.(w)";
    make =
      (fun ctx ->
        if in_dirs ctx.rel [ "lib/exec/" ] then no_hooks
        else { no_hooks with on_expr = on_expr ctx });
  }

let state_dirs = [ "lib/sim/"; "lib/baselines/"; "lib/vrf/"; "lib/core/" ]

let global_mutable_reach =
  let rule = "global-mutable-reach" in
  let make ctx =
    let on_expr (e : Typedtree.expression) =
      let lazy_use =
        match e.exp_desc with
        | Texp_lazy _ -> true
        | Texp_ident _ -> ( match ident_path ctx e with Some ("Lazy" :: _) -> true | _ -> false)
        | _ -> false
      in
      if lazy_use then
        report ctx ~rule ~loc:e.exp_loc
          "lazy value under lib/: forcing mutates the thunk cell, so two domains forcing it race"
    in
    let on_item (si : Typedtree.structure_item) =
      match si.str_desc with
      | Tstr_value (_, vbs) when in_dirs ctx.rel state_dirs ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match vb.vb_expr.exp_desc with
              | Texp_function _ -> ()
              | _ ->
                  Option.iter
                    (fun why ->
                      let frames = List.filter_map allow_payload vb.vb_attributes in
                      if not (allowed_in (frames @ ctx.allows) rule) then
                        add ctx ~rule
                          ~symbol:(Option.value ~default:"" (vb_name vb.vb_pat))
                          ~loc:vb.vb_loc
                          (Printf.sprintf
                             "toplevel binding of a mutable type (%s): state here is shared by \
                              every worker domain that reaches it"
                             why))
                    (is_mut ctx vb.vb_expr.exp_type))
            vbs
      | _ -> ()
    in
    if in_dirs ctx.rel [ "lib/" ] then { no_hooks with on_expr; on_item } else no_hooks
  in
  {
    name = rule;
    summary =
      "no toplevel binding of a mutable type in lib/sim, lib/baselines, lib/vrf and lib/core, \
       and no lazy value under lib/ (state a worker could reach)";
    make;
  }

let all = [ domain_escape; global_mutable_reach ]
