(* coinlint's quorum rules: threshold comparisons checked against the
   declared guard table (quorum_spec.ml).

   In each module the spec covers, every integer comparison whose one
   side is arithmetic over the protocol parameters is normalized —
   record fields n/f/w, reached directly
   (t.n), through nested records (t.params.Params.w) or through local
   helper functions whose body is such arithmetic (quorum t,
   echo_threshold t, w t).  Helpers are resolved the way module aliases
   are: by definition, not by spelling, so renaming `quorum` or routing
   it through an alias module changes nothing.

   Each normalized comparison must be one of the module's declared
   guards:

     - no match at all            -> quorum-guard   (undeclared threshold)
     - one constant away          -> quorum-guard   (off-by-one)
     - fewer sites than declared  -> quorum-coverage (guard dropped)
     - more sites than declared   -> quorum-coverage (guard duplicated)

   Comparisons with no parameter arithmetic on either side (tally vs
   tally, counter vs literal) are not thresholds and are ignored, as are
   parameter-vs-parameter comparisons (none exist in the covered
   modules; if one appears the repo scan stays honest because its tally
   side would normalize and fail the lookup).  Modules without a spec
   entry are skipped entirely — the rules are a contract check for the
   protocol layer, not a general arithmetic lint. *)

open Engine

(* --------------------------- form parsing ----------------------------- *)

(* Linear arithmetic over the parameter atoms, with one optional integer
   division: pn*N + pt*T + pw*W + pc, or (that)/by + tail. *)
type poly =
  | PLin of { pn : int; pt : int; pw : int; pc : int }
  | PDiv of { pn : int; pt : int; pw : int; pc : int; by : int; tail : int }

let const c = PLin { pn = 0; pt = 0; pw = 0; pc = c }

let atoms = [ ("n", `N); ("f", `T); ("w", `W) ]

let has_atoms = function
  | PLin { pn; pt; pw; _ } | PDiv { pn; pt; pw; _ } -> pn <> 0 || pt <> 0 || pw <> 0

let as_const = function
  | PLin { pn = 0; pt = 0; pw = 0; pc } -> Some pc
  | PLin _ | PDiv _ -> None

let p_add a b =
  match (a, b) with
  | PLin x, PLin y ->
      Some (PLin { pn = x.pn + y.pn; pt = x.pt + y.pt; pw = x.pw + y.pw; pc = x.pc + y.pc })
  | PDiv d, p | p, PDiv d -> (
      match as_const p with Some c -> Some (PDiv { d with tail = d.tail + c }) | None -> None)

let p_neg = function
  | PLin { pn; pt; pw; pc } -> Some (PLin { pn = -pn; pt = -pt; pw = -pw; pc = -pc })
  | PDiv _ -> None

let p_sub a b = match p_neg b with Some nb -> p_add a nb | None -> None

let p_mul a b =
  let scale k = function
    | PLin y -> Some (PLin { pn = k * y.pn; pt = k * y.pt; pw = k * y.pw; pc = k * y.pc })
    | PDiv _ -> None
  in
  match (as_const a, as_const b) with
  | Some k, _ -> scale k b
  | None, Some k -> scale k a
  | None, None -> None

let p_div a b =
  match (a, as_const b) with
  | PLin { pn; pt; pw; pc }, Some k when k > 0 -> Some (PDiv { pn; pt; pw; pc; by = k; tail = 0 })
  | _ -> None

let binops = [ ("+", p_add); ("-", p_sub); ("*", p_mul); ("/", p_div) ]

let rec parse_form ctx derived (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_constant (Const_int c) -> Some (const c)
  | Texp_field (_, _, lbl) -> (
      match List.assoc_opt lbl.Types.lbl_name atoms with
      | Some `N -> Some (PLin { pn = 1; pt = 0; pw = 0; pc = 0 })
      | Some `T -> Some (PLin { pn = 0; pt = 1; pw = 0; pc = 0 })
      | Some `W -> Some (PLin { pn = 0; pt = 0; pw = 1; pc = 0 })
      | None -> None)
  | Texp_apply (f, args) -> (
      match (ident_path ctx f, args) with
      | Some [ op ], [ (_, Some a); (_, Some b) ] when List.mem_assoc op binops -> (
          match (parse_form ctx derived a, parse_form ctx derived b) with
          | Some pa, Some pb -> (List.assoc op binops) pa pb
          | _ -> None)
      | Some [ "~-" ], [ (_, Some a) ] -> Option.bind (parse_form ctx derived a) p_neg
      | Some [ name ], _ -> Hashtbl.find_opt derived name |> Option.map nf_poly
      | _ -> None)
  | _ -> None

(* A derived helper's registered form, re-expanded to a poly. *)
and nf_poly (nf : Quorum_spec.nf) =
  match nf.Quorum_spec.base with
  | Quorum_spec.Lin { bn; bt; bw } -> PLin { pn = bn; pt = bt; pw = bw; pc = nf.Quorum_spec.off }
  | Quorum_spec.Div { bn; bt; bw; add; by } ->
      PDiv { pn = bn; pt = bt; pw = bw; pc = add; by; tail = nf.Quorum_spec.off }

let nf_of ~coeff ~rel ~extra poly : Quorum_spec.nf =
  match poly with
  | PLin { pn; pt; pw; pc } ->
      { Quorum_spec.coeff; rel; base = Quorum_spec.Lin { bn = pn; bt = pt; bw = pw }; off = pc + extra }
  | PDiv { pn; pt; pw; pc; by; tail } ->
      {
        Quorum_spec.coeff;
        rel;
        base = Quorum_spec.Div { bn = pn; bt = pt; bw = pw; add = pc; by };
        off = tail + extra;
      }

(* ------------------------- site recognition --------------------------- *)

let cmp_ops = [ ">="; ">"; "<"; "<=" ]

(* Tally-side coefficient: `2 * cnt` (either operand order). *)
let tally_coeff ctx derived (e : Typedtree.expression) =
  let const_of e = Option.bind (parse_form ctx derived e) as_const in
  match e.exp_desc with
  | Texp_apply (f, [ (_, Some a); (_, Some b) ]) when ident_path ctx f = Some [ "*" ] -> (
      match (const_of a, const_of b) with
      | Some k, _ when k > 0 -> k
      | _, Some k when k > 0 -> k
      | _ -> 1)
  | _ -> 1

(* Canonical (rel, extra) for tally-on-the-LEFT; [mirrored] when the form
   was on the left instead.  Integer folding: c > x == c >= x+1 and
   c <= x == c < x+1. *)
let canon_rel ~mirrored op =
  match (op, mirrored) with
  | ">=", false | "<=", true -> (Quorum_spec.Ge, 0)
  | ">", false | "<", true -> (Quorum_spec.Ge, 1)
  | "<", false | ">", true -> (Quorum_spec.Lt, 0)
  | "<=", false | ">=", true -> (Quorum_spec.Lt, 1)
  | _ -> assert false

(* The normal form of a threshold comparison: one side parameter
   arithmetic, the other a tally.  [None] for anything else. *)
let compare_site ctx derived (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, [ (_, Some lhs); (_, Some rhs) ]) -> (
      match ident_path ctx f with
      | Some [ op ] when List.mem op cmp_ops -> (
          let form x =
            match parse_form ctx derived x with Some p when has_atoms p -> Some p | _ -> None
          in
          match (form lhs, form rhs) with
          | None, Some p ->
              let rel, extra = canon_rel ~mirrored:false op in
              Some (nf_of ~coeff:(tally_coeff ctx derived lhs) ~rel ~extra p)
          | Some p, None ->
              let rel, extra = canon_rel ~mirrored:true op in
              Some (nf_of ~coeff:(tally_coeff ctx derived rhs) ~rel ~extra p)
          | _ -> None)
      | Some _ | None -> None)
  | _ -> None

(* ------------------------ derived registration ------------------------ *)

(* `let helper t = <parameter arithmetic>` registers helper as an atom;
   multi-parameter and non-arithmetic bodies are simply not forms. *)
let rec fun_body (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_lhs = _; c_guard = None; c_rhs; _ } ]; _ } -> (
      match fun_body c_rhs with Some b -> Some b | None -> Some c_rhs)
  | _ -> None

(* Both rules see every comparison of a covered module: [rule_hooks spec]
   returns the rule's [on_site ~loc nf guard] — [guard] is the index of
   the spec entry [nf] matches, if any — and its [on_done]. *)
let make_quorum ctx rule_hooks =
  match Quorum_spec.spec_for ctx.modname with
  | None -> no_hooks
  | Some spec ->
      let on_site, on_done = rule_hooks spec in
      let derived = Hashtbl.create 8 in
      let on_item (si : Typedtree.structure_item) =
        match si.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match (vb_name vb.vb_pat, fun_body vb.vb_expr) with
                | Some name, Some body ->
                    Option.iter
                      (fun p ->
                        Hashtbl.replace derived name
                          (nf_of ~coeff:1 ~rel:Quorum_spec.Ge ~extra:0 p))
                      (parse_form ctx derived body)
                | _ -> ())
              vbs
        | _ -> ()
      in
      let on_expr (e : Typedtree.expression) =
        Option.iter
          (fun nf ->
            on_site ~loc:e.exp_loc nf
              (List.find_index
                 (fun g -> Quorum_spec.nf_equal g.Quorum_spec.g_nf nf)
                 spec.Quorum_spec.m_guards))
          (compare_site ctx derived e)
      in
      { on_expr; on_item; on_done }

let quorum_guard =
  let rule = "quorum-guard" in
  let make ctx =
    make_quorum ctx (fun spec ->
        let on_site ~loc nf = function
          | Some _ -> ()
          | None -> (
              match
                List.find_opt
                  (fun g -> Quorum_spec.nf_off_by_one ~spec:g.Quorum_spec.g_nf nf)
                  spec.Quorum_spec.m_guards
              with
              | Some g ->
                  report ctx ~rule ~loc
                    (Format.asprintf
                       "threshold %a is one off the declared guard %a: a weakened or \
                        strengthened quorum constant breaks the protocol's intersection argument"
                       Quorum_spec.pp_nf nf Quorum_spec.pp_guard g)
              | None ->
                  report ctx ~rule ~loc
                    (Format.asprintf
                       "undeclared threshold %a: every comparison against n/f/w arithmetic in %s \
                        must match a guard declared in tools/lint/quorum_spec.ml"
                       Quorum_spec.pp_nf nf spec.Quorum_spec.m_module))
        in
        (on_site, ignore))
  in
  {
    name = rule;
    summary =
      "every threshold comparison in the protocol modules must match a guard declared in \
       quorum_spec.ml exactly; off-by-one or undeclared comparisons fail";
    make;
  }

(* Where a guard with no matched site is reported: line 1, column 0 of
   the unit, as the guard has no site of its own. *)
let unit_start =
  let p = { Lexing.pos_fname = ""; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 } in
  { Location.loc_start = p; loc_end = p; loc_ghost = true }

let quorum_coverage =
  let rule = "quorum-coverage" in
  let make ctx =
    make_quorum ctx (fun spec ->
        let guards = spec.Quorum_spec.m_guards in
        let counts = Array.make (List.length guards) 0 in
        let firsts = Array.make (List.length guards) None in
        let on_site ~loc _ = function
          | Some i ->
              counts.(i) <- counts.(i) + 1;
              if Option.is_none firsts.(i) then firsts.(i) <- Some loc
          | None -> ()
        in
        (* Runs after the walk: the allow frames are gone, so these
           findings are baseline-suppressible but not [@lint.allow]-
           scopable — a missing guard has no site to hang an attribute
           on anyway. *)
        let on_done () =
          List.iteri
            (fun i g ->
              let want = g.Quorum_spec.g_sites and got = counts.(i) in
              if got <> want then
                add ctx ~rule ~symbol:""
                  ~loc:(Option.value firsts.(i) ~default:unit_start)
                  (Format.asprintf "guard %a: expected %d site%s, found %d — %s"
                     Quorum_spec.pp_guard g want
                     (if want = 1 then "" else "s")
                     got
                     (if got < want then
                        "a wait/decide threshold was dropped or weakened past recognition"
                      else "a threshold was duplicated")))
            guards
        in
        (on_site, on_done))
  in
  {
    name = rule;
    summary =
      "every declared quorum guard must appear at exactly its declared number of sites: fewer \
       means a wait/decide guard was dropped, more means one was duplicated";
    make;
  }

let all = [ quorum_guard; quorum_coverage ]
