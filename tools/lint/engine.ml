(* coinlint engine: one walk over the Typedtree of each compilation unit,
   driven by the rule registry (registry.ml).

   Input is the .cmt set that `dune build @check` writes (cmt_loader.ml),
   or a fixture string typechecked in-process.  Every identifier is
   resolved to a normalized path before a rule sees it: `module R =
   Random` aliases are expanded through a per-unit alias map, `open`s
   are already expanded by the typechecker, and dune's name-mangled
   prefixes (`Core__Coin`, `Stdlib__Random`, alias stubs like `Core__`)
   are demangled away.  Rules therefore fire on what code means, not on
   how it is spelled.

   A rule is a set of hooks on the walk: [on_expr] for every expression,
   [on_item] for every structure item before the walk descends into it,
   [on_done] once the unit is walked.  [make] builds fresh hooks per unit,
   so per-unit state (guard counts, declared constructors) lives in the
   closures.

   Each finding records the enclosing top-level [symbol], which is what
   --baseline keys on (rule/file/symbol, deliberately not line numbers,
   so a saved baseline survives unrelated edits).

   Allow attributes scope lexically:
     - on an expression:      (e [@lint.allow "poly-compare"])
     - on a let binding:      let[@lint.allow "r"] f x = ...
     - floating, file-level:  [@@@lint.allow "r"]  (rest of the structure)
   The payload is a string of rule names separated by spaces or commas;
   the name "all" suppresses every rule.  A malformed payload is itself a
   finding (rule "lint"): a typo'd allow that suppresses nothing is
   exactly the kind of bug a linter exists for. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
  symbol : string;  (* enclosing top-level binding, "" at module level *)
}

type ctx = {
  rel : string;      (* source path as reported in findings *)
  modname : string;  (* demangled compilation-unit name, e.g. Coin *)
  decls : Mut_types.table;
  aliases : (string, string list) Hashtbl.t;  (* Ident.unique_name -> path *)
  mutable allows : string list list;          (* lexical allow frames, innermost first *)
  mutable sym : string;
  mutable out : finding list;
}

type hooks = {
  on_expr : Typedtree.expression -> unit;
  on_item : Typedtree.structure_item -> unit;
  on_done : unit -> unit;
}

let no_hooks = { on_expr = ignore; on_item = ignore; on_done = ignore }

type rule = {
  name : string;
  summary : string;  (* one line, shown by --list-rules and in DESIGN.md *)
  make : ctx -> hooks;
}

(* --------------------------- reporting ------------------------------- *)

let add ctx ~rule ~symbol ~(loc : Location.t) msg =
  let p = loc.loc_start in
  ctx.out <-
    { file = ctx.rel; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; rule; msg; symbol }
    :: ctx.out

let allowed_in frames rule =
  List.exists
    (List.exists (fun a -> String.equal a rule || String.equal a "all"))
    frames

let report ctx ~rule ~loc msg =
  if not (allowed_in ctx.allows rule) then add ctx ~rule ~symbol:ctx.sym ~loc msg

(* Snapshot the allow frames and enclosing symbol now, deliver the
   finding later (rules that conclude in [on_done], after the frames are
   gone). *)
let capture ctx ~rule ~loc =
  let suppressed = allowed_in ctx.allows rule in
  let symbol = ctx.sym in
  fun msg -> if not suppressed then add ctx ~rule ~symbol ~loc msg

(* ---------------------- allow-attribute parsing ---------------------- *)

let attr_name = "lint.allow"

let split_names s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char ',')
  |> List.filter (fun x -> not (String.equal x ""))

(* The rule names of one [@lint.allow] attribute, or [None] when the
   attribute is someone else's or malformed. *)
let allow_payload (a : Parsetree.attribute) =
  if not (String.equal a.attr_name.txt attr_name) then None
  else
    match a.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ]
      when split_names s <> [] ->
        Some (split_names s)
    | _ -> None

(* --------------------- path resolution/normalization ------------------ *)

let rec raw_path ctx (p : Path.t) =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt ctx.aliases (Ident.unique_name id) with
      | Some path -> path
      | None -> ( match Cmt_loader.demangle (Ident.name id) with Some s -> [ s ] | None -> []))
  | Path.Pdot (p, s) -> raw_path ctx p @ [ s ]
  | Path.Papply (p, _) -> raw_path ctx p
  | Path.Pextra_ty (p, _) -> raw_path ctx p

let normalize ctx p = match raw_path ctx p with "Stdlib" :: rest -> rest | path -> path

let ident_path ctx (e : Typedtree.expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> Some (normalize ctx p) | _ -> None

let ends_with = Mut_types.ends_with
let path_equal p q = List.length p = List.length q && List.for_all2 String.equal p q
let dots = String.concat "."
let last_of = function [] -> "" | path -> List.nth path (List.length path - 1)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* [rel] is the repo-relative path the compiler recorded (or a fixture's
   name); a rule scoped to directories matches on its prefix. *)
let in_dirs rel dirs = List.exists (fun prefix -> starts_with ~prefix rel) dirs

let classify ctx ty =
  Mut_types.classify ctx.decls ~normalize:(normalize ctx) ~modname:ctx.modname ty

let rec vb_name (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_var (_, { txt; _ }) -> Some txt
  | Tpat_alias (p, _, _) -> vb_name p
  | _ -> None

let exists_subexpr p e =
  let found = ref false in
  let super = Tast_iterator.default_iterator in
  let it = { super with expr = (fun it e -> if p e then found := true else super.expr it e) } in
  it.expr it e;
  !found

(* ------------------------------- walk --------------------------------- *)

let walk ctx hooks (str : Typedtree.structure) =
  let super = Tast_iterator.default_iterator in
  let frames attrs =
    List.filter_map
      (fun (a : Parsetree.attribute) ->
        match allow_payload a with
        | Some names -> Some names
        | None ->
            if String.equal a.attr_name.txt attr_name then
              add ctx ~rule:"lint" ~symbol:ctx.sym ~loc:a.attr_loc
                "malformed [@lint.allow] payload: expected a string of rule names";
            None)
      attrs
  in
  let with_frames attrs f =
    match frames attrs with
    | [] -> f ()
    | fs ->
        let saved = ctx.allows in
        ctx.allows <- fs @ saved;
        f ();
        ctx.allows <- saved
  in
  let record_alias id (m : Typedtree.module_expr) =
    let rec alias_path (m : Typedtree.module_expr) =
      match m.mod_desc with
      | Tmod_ident (p, _) -> Some p
      | Tmod_constraint (m, _, _, _) -> alias_path m
      | _ -> None
    in
    match (id, alias_path m) with
    | Some id, Some p -> Hashtbl.replace ctx.aliases (Ident.unique_name id) (normalize ctx p)
    | _ -> ()
  in
  let expr it (e : Typedtree.expression) =
    with_frames e.exp_attributes (fun () ->
        (match e.exp_desc with
        | Texp_letmodule (id, _, _, m, _) -> record_alias id m
        | _ -> ());
        List.iter (fun h -> h.on_expr e) hooks;
        super.expr it e)
  in
  let value_binding it (vb : Typedtree.value_binding) =
    with_frames vb.vb_attributes (fun () -> super.value_binding it vb)
  in
  let structure_item (it : Tast_iterator.iterator) (si : Typedtree.structure_item) =
    (match si.str_desc with Tstr_module mb -> record_alias mb.mb_id mb.mb_expr | _ -> ());
    List.iter (fun h -> h.on_item si) hooks;
    match si.str_desc with
    | Tstr_value (_, vbs) ->
        (* Top-level bindings name the enclosing symbol recorded on each
           finding (the --baseline key); nested lets keep the outer name. *)
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let saved = ctx.sym in
            Option.iter (fun n -> ctx.sym <- n) (vb_name vb.vb_pat);
            it.value_binding it vb;
            ctx.sym <- saved)
          vbs
    | _ -> super.structure_item it si
  in
  let structure (it : Tast_iterator.iterator) (str : Typedtree.structure) =
    (* A floating [@@@lint.allow] covers the rest of its structure. *)
    let saved = ctx.allows in
    List.iter
      (fun (item : Typedtree.structure_item) ->
        (match item.str_desc with
        | Tstr_attribute a -> ctx.allows <- frames [ a ] @ ctx.allows
        | _ -> ());
        it.structure_item it item)
      str.str_items;
    ctx.allows <- saved
  in
  let it = { super with expr; value_binding; structure_item; structure } in
  it.structure it str

(* ------------------------------ driving -------------------------------- *)

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

(* Type declarations are collected from every unit first, so a type that
   is abstract at its use site (Vrf.Keyring.t) classifies by the record
   its own unit declares. *)
let lint_units ~rules (units : Cmt_loader.unit_ list) =
  let decls =
    Mut_types.table (List.map (fun (u : Cmt_loader.unit_) -> (u.modname, u.structure)) units)
  in
  let lint_unit (u : Cmt_loader.unit_) =
    let ctx =
      {
        rel = u.rel;
        modname = u.modname;
        decls;
        aliases = Hashtbl.create 16;
        allows = [];
        sym = "";
        out = [];
      }
    in
    let hooks = List.map (fun r -> r.make ctx) rules in
    walk ctx hooks u.structure;
    List.iter (fun h -> h.on_done ()) hooks;
    ctx.out
  in
  List.sort compare_findings (List.concat_map lint_unit units)

(* Typecheck a fixture string and lint it — the test-suite entry point.
   Input that does not parse or typecheck becomes a "typecheck" finding. *)
let lint_source ~rules ~rel source =
  match Cmt_loader.unit_of_source ~rel source with
  | u -> lint_units ~rules [ u ]
  | exception exn ->
      [
        {
          file = rel;
          line = 1;
          col = 0;
          rule = "typecheck";
          msg = "cannot typecheck: " ^ Printexc.to_string exn;
          symbol = "";
        };
      ]

(* ----------------------------- baseline ------------------------------ *)

(* Baseline suppression keys on rule/file/symbol — not line/col — so a
   saved report keeps suppressing a known finding while unrelated lines
   above it churn: freeze today's findings, fail CI only on new ones,
   burn the baseline down over time. *)
type baseline_key = { b_rule : string; b_file : string; b_symbol : string }

let baseline_of_finding f = { b_rule = f.rule; b_file = f.file; b_symbol = f.symbol }

let key_equal a b =
  String.equal a.b_rule b.b_rule && String.equal a.b_file b.b_file
  && String.equal a.b_symbol b.b_symbol

let key_of_json f =
  let str k = Option.bind (Obs.Json.member k f) Obs.Json.to_string_opt in
  match (str "rule", str "file") with
  | Some b_rule, Some b_file ->
      Some { b_rule; b_file; b_symbol = Option.value ~default:"" (str "symbol") }
  | _ -> None

let baseline_of_json doc =
  match Obs.Json.member "findings" doc with
  | Some fs -> Ok (List.filter_map key_of_json (Obs.Json.to_list fs))
  | None -> Error "baseline document has no \"findings\" member"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_baseline path =
  match Obs.Json.of_string (read_file path) with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok doc -> baseline_of_json doc
  | exception Sys_error e -> Error e

(* Returns the findings not covered by the baseline, the suppressed count
   (reported in the JSON document so a baselined run is auditable), and
   the *stale* baseline entries — keys that no longer match any finding.
   A stale entry is silently-dead suppression: the bug it excused is
   fixed (or the symbol renamed) and leaving it in place would excuse a
   future regression at the same key. *)
let apply_baseline ~baseline findings =
  let covered f = List.exists (key_equal (baseline_of_finding f)) baseline in
  let kept, suppressed = List.partition (fun f -> not (covered f)) findings in
  let stale =
    List.filter
      (fun b -> not (List.exists (fun f -> key_equal b (baseline_of_finding f)) findings))
      baseline
  in
  (kept, List.length suppressed, stale)

(* Rewrite the baseline document at [path] without its stale entries
   (--baseline-gc).  The document keeps its shape — only the "findings"
   array shrinks and "count" is refreshed — so the rewritten file stays
   loadable by --baseline.  Returns the number of entries dropped. *)
let gc_baseline_file path ~stale =
  let is_stale f =
    match key_of_json f with Some k -> List.exists (key_equal k) stale | None -> false
  in
  match Obs.Json.of_string (read_file path) with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | exception Sys_error e -> Error e
  | Ok (Obs.Json.Obj fields) ->
      let dropped = ref 0 and kept_count = ref 0 in
      let fields =
        List.map
          (fun (k, v) ->
            match (k, v) with
            | "findings", Obs.Json.List fs ->
                let kept = List.filter (fun f -> not (is_stale f)) fs in
                dropped := List.length fs - List.length kept;
                kept_count := List.length kept;
                (k, Obs.Json.List kept)
            | _ -> (k, v))
          fields
      in
      let fields =
        List.map
          (fun (k, v) -> if String.equal k "count" then (k, Obs.Json.Int !kept_count) else (k, v))
          fields
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Obs.Json.to_channel oc (Obs.Json.Obj fields);
          output_char oc '\n');
      Ok !dropped
  | Ok _ -> Error (path ^ ": baseline document is not an object")

(* ---------------------------- reporters ------------------------------ *)

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d:%d: [%s] %s%s" f.file f.line f.col f.rule f.msg
    (if String.equal f.symbol "" then "" else Printf.sprintf " (in %s)" f.symbol)

let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s")

let print_human fmt ~units findings =
  List.iter (fun f -> Format.fprintf fmt "%a@." pp_finding f) findings;
  Format.fprintf fmt "coinlint: %s in %s@."
    (plural (List.length findings) "finding")
    (plural units "unit")

let schema = "coincidence.lint/4"

let json_finding f =
  Obs.Json.Obj
    [
      ("file", Obs.Json.Str f.file);
      ("line", Obs.Json.Int f.line);
      ("col", Obs.Json.Int f.col);
      ("rule", Obs.Json.Str f.rule);
      ("symbol", Obs.Json.Str f.symbol);
      ("msg", Obs.Json.Str f.msg);
    ]

(* [rules] names the registry entries that ran; [units] counts the
   compilation units walked, [baseline_suppressed] how many findings
   --baseline removed before [findings], and [stale_baseline] the
   baseline entries that matched nothing. *)
let json_report ~rules ~units ~baseline_suppressed ?(stale_baseline = []) findings =
  let str s = Obs.Json.Str s in
  Obs.Json.Obj
    [
      ("schema", str schema);
      ("rules", Obs.Json.List (List.map str rules));
      ("units", Obs.Json.Int units);
      ("baseline_suppressed", Obs.Json.Int baseline_suppressed);
      ( "stale_baseline",
        Obs.Json.List
          (List.map
             (fun b ->
               Obs.Json.Obj
                 [ ("rule", str b.b_rule); ("file", str b.b_file); ("symbol", str b.b_symbol) ])
             stale_baseline) );
      ("count", Obs.Json.Int (List.length findings));
      ("findings", Obs.Json.List (List.map json_finding findings));
    ]
