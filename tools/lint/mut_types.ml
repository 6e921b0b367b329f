(* Deep mutability classification of a [Types.type_expr], for coinlint's
   domain-escape and global-mutable-reach rules.

   A value may cross an Exec domain boundary only if no mutation of it is
   reachable from the other side.  The classifier answers "could a value
   of this type carry reachable mutable state?" with a three-point
   verdict:

     - [Mut why]  : definitely carries mutable state ([why] names the
                    first mutable component found — the message shown in
                    findings);
     - [Imm]      : provably free of mutable state (ints, strings,
                    immutable records/variants of such, containers of
                    such);
     - [Unknown]  : cannot tell (type variables, abstract types whose
                    declaration is outside the scanned units, arrows —
                    a closure's captures are invisible in its type).

   Only [Mut] triggers findings: the rules under-approximate on [Unknown]
   rather than drowning a clean tree in maybes.

   Named types resolve through a declaration table collected from every
   scanned unit's Typedtree ([Tstr_type] items, keyed by the module path
   of the declaration site), so `Vrf.Keyring.t` — abstract behind the
   library interface — still classifies as mutable because vrf.ml's own
   .cmt carries the record declaration with its `mutable cache_hits`
   fields.  Classification memoizes per declaration key and treats
   in-recursion keys as immutable (the least fixed point: a recursive
   type is mutable only if some component is), which makes it cycle-safe
   across arbitrary type recursion. *)

type verdict = Imm | Unknown | Mut of string

(* Mut dominates Unknown dominates Imm; the first reason wins so messages
   point at the leftmost mutable component. *)
let join a b =
  match (a, b) with
  | (Mut _ as m), _ -> m
  | _, (Mut _ as m) -> m
  | Unknown, _ | _, Unknown -> Unknown
  | Imm, Imm -> Imm

let join_all = List.fold_left join Imm

(* ------------------------ declaration table -------------------------- *)

type decl_state = Unresolved of Types.type_declaration | Resolving | Resolved of verdict
type table = (string list, decl_state ref) Hashtbl.t

let rec mod_structure (m : Typedtree.module_expr) =
  match m.mod_desc with
  | Tmod_structure s -> Some s
  | Tmod_constraint (m, _, _, _) -> mod_structure m
  | _ -> None

(* Every type declared in [units] ((modname, structure) pairs), nested
   modules included, keyed by its full module path. *)
let table units : table =
  let decls = Hashtbl.create 256 in
  let rec collect path (str : Typedtree.structure) =
    let sub (mb : Typedtree.module_binding) =
      match (mb.mb_id, mod_structure mb.mb_expr) with
      | Some id, Some s -> collect (path @ [ Ident.name id ]) s
      | _ -> ()
    in
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_type (_, ds) ->
            List.iter
              (fun (d : Typedtree.type_declaration) ->
                let key = path @ [ d.typ_name.txt ] in
                if not (Hashtbl.mem decls key) then
                  Hashtbl.replace decls key (ref (Unresolved d.typ_type)))
              ds
        | Tstr_module mb -> sub mb
        | Tstr_recmodule mbs -> List.iter sub mbs
        | _ -> ())
      str.str_items
  in
  List.iter (fun (modname, str) -> collect [ modname ] str) units;
  decls

(* ------------------------- builtin constructors ----------------------- *)

(* Heads whose values are mutable whatever the arguments.  Matched on the
   *suffix* of the normalized path, same convention as the rules, so
   `Stdlib.Hashtbl.t`, a re-exported `Foo.Hashtbl.t` and an aliased
   `module H = Hashtbl` all hit. *)
let mutable_heads =
  [
    ([ "ref" ], "ref cell");
    ([ "array" ], "array");
    ([ "bytes" ], "bytes");
    ([ "Bytes"; "t" ], "bytes");
    ([ "Hashtbl"; "t" ], "Hashtbl.t");
    ([ "Buffer"; "t" ], "Buffer.t");
    ([ "Queue"; "t" ], "Queue.t");
    ([ "Stack"; "t" ], "Stack.t");
    ([ "Atomic"; "t" ], "Atomic.t");
    ([ "Mutex"; "t" ], "Mutex.t");
    ([ "Condition"; "t" ], "Condition.t");
    ([ "Semaphore"; "Counting"; "t" ], "Semaphore.Counting.t");
    ([ "Semaphore"; "Binary"; "t" ], "Semaphore.Binary.t");
    ([ "lazy_t" ], "lazy value (forcing mutates)");
    ([ "Lazy"; "t" ], "lazy value (forcing mutates)");
    ([ "Random"; "State"; "t" ], "Random.State.t");
    ([ "Weak"; "t" ], "Weak.t");
    ([ "Dynarray"; "t" ], "Dynarray.t");
    ([ "in_channel" ], "in_channel");
    ([ "out_channel" ], "out_channel");
  ]

(* Immutable heads whose verdict is the join of their type arguments. *)
let transparent_heads =
  [ [ "list" ]; [ "option" ]; [ "result" ]; [ "Either"; "t" ]; [ "Atomic"; "Loc"; "t" ] ]

let atomic_imm_heads =
  [
    [ "int" ]; [ "char" ]; [ "bool" ]; [ "unit" ]; [ "float" ]; [ "string" ];
    [ "int32" ]; [ "int64" ]; [ "nativeint" ]; [ "Int32"; "t" ]; [ "Int64"; "t" ];
    [ "Nativeint"; "t" ]; [ "String"; "t" ]; [ "Float"; "t" ]; [ "Int"; "t" ];
    [ "Bool"; "t" ]; [ "Char"; "t" ]; [ "Unit"; "t" ]; [ "floatarray" ];
  ]

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let ends_with ~suffix path =
  let lp = List.length path and ls = List.length suffix in
  lp >= ls && List.for_all2 String.equal (drop (lp - ls) path) suffix

(* --------------------------- classification --------------------------- *)

(* Resolve a normalized use-site path against the declaration table:
   first an exact hit with the using unit's module name prefixed (a bare
   local `t`), then an exact hit as spelled, then a suffix match in
   either direction (the table keys full declaration paths like
   [Metrics; Sharded; t], use sites may spell the longer [Obs; Metrics;
   Sharded; t] through the library interface, or the shorter [Keyring;
   t] through an open).  An ambiguous suffix match with disagreeing
   verdicts yields [Unknown] — never a spurious [Mut]. *)
let find_decl (table : table) ~modname path =
  let exact k = Hashtbl.find_opt table k in
  match exact (modname :: path) with
  | Some s -> [ s ]
  | None -> (
      match exact path with
      | Some s -> [ s ]
      | None ->
          Hashtbl.fold
            (fun k s acc ->
              if ends_with ~suffix:path k || ends_with ~suffix:k path then s :: acc else acc)
            table [])

let classify table ~normalize ~modname ty0 =
  (* Per-call memo keyed by the type node id; node ids are only stable
     within one loaded structure, so the memo does not outlive the call.
     The [visiting] entry makes direct type_expr cycles (recursive object
     or polymorphic-variant types) terminate as Imm-so-far. *)
  let seen : (int, verdict option ref) Hashtbl.t = Hashtbl.create 32 in
  let rec go ty =
    let id = Types.get_id ty in
    match Hashtbl.find_opt seen id with
    | Some { contents = Some v } -> v
    | Some { contents = None } -> Imm (* in-cycle: least fixed point *)
    | None ->
        let cell = ref None in
        Hashtbl.replace seen id cell;
        let v = go_desc ty in
        cell := Some v;
        v
  and go_desc ty =
    match Types.get_desc ty with
    | Tvar _ | Tunivar _ -> Unknown
    | Tarrow _ -> Unknown (* captures invisible at the type level *)
    | Ttuple tys -> join_all (List.map go tys)
    | Tpoly (ty, _) -> go ty
    | Tconstr (p, args, _) -> go_constr p args
    | Tobject _ -> Mut "object (assumed mutable internal state)"
    | Tfield (_, _, ty, rest) -> join (go ty) (go rest)
    | Tnil -> Imm
    | Tvariant row ->
        join_all
          (List.map
             (fun (_, f) ->
               match Types.row_field_repr f with
               | Types.Rpresent (Some ty) -> go ty
               | Types.Rpresent None | Types.Rabsent -> Imm
               | Types.Reither (_, tys, _) -> join_all (List.map go tys))
             (Types.row_fields row))
    | Tpackage _ -> Unknown
    | Tlink ty | Tsubst (ty, _) -> go ty
  and go_constr p args =
    let path = normalize p in
    let arg_verdict () = join_all (List.map go args) in
    match List.find_opt (fun (suffix, _) -> ends_with ~suffix path) mutable_heads with
    | Some (_, why) -> Mut why
    | None ->
        if List.exists (fun suffix -> ends_with ~suffix path) atomic_imm_heads then Imm
        else if List.exists (fun suffix -> ends_with ~suffix path) transparent_heads then
          arg_verdict ()
        else begin
          match find_decl table ~modname path with
          | [] -> Unknown
          | states ->
              let verdicts = List.map go_decl states in
              let v =
                match verdicts with
                | [ v ] -> v
                | v :: rest when List.for_all (( = ) v) rest -> v
                | _ -> Unknown (* ambiguous suffix resolution *)
              in
              (* Over-approximate parameterized containers: a mutable
                 argument makes the instance mutable even when the
                 declaration itself is clean ('a option-of-Keyring.t). *)
              join v (match v with Mut _ -> v | _ -> arg_verdict ())
        end
  and go_decl state =
    match !state with
    | Resolved v -> v
    | Resolving -> Imm (* recursive type: mutable only via some component *)
    | Unresolved d ->
        state := Resolving;
        let v = decl_verdict d in
        state := Resolved v;
        v
  and decl_verdict (d : Types.type_declaration) =
    let kind_verdict =
      match d.type_kind with
      | Type_record (lds, _) -> (
          match
            List.find_opt (fun (ld : Types.label_declaration) -> ld.ld_mutable = Asttypes.Mutable) lds
          with
          | Some ld -> Mut (Printf.sprintf "mutable field %s" (Ident.name ld.ld_id))
          | None -> join_all (List.map (fun (ld : Types.label_declaration) -> go ld.ld_type) lds))
      | Type_variant (cds, _) ->
          join_all
            (List.map
               (fun (cd : Types.constructor_declaration) ->
                 match cd.cd_args with
                 | Cstr_tuple tys -> join_all (List.map go tys)
                 | Cstr_record lds -> (
                     match
                       List.find_opt
                         (fun (ld : Types.label_declaration) -> ld.ld_mutable = Asttypes.Mutable)
                         lds
                     with
                     | Some ld ->
                         Mut (Printf.sprintf "mutable field %s" (Ident.name ld.ld_id))
                     | None ->
                         join_all
                           (List.map (fun (ld : Types.label_declaration) -> go ld.ld_type) lds)))
               cds)
      | Type_abstract -> Unknown
      | Type_open -> Unknown
    in
    match (kind_verdict, d.type_manifest) with
    | Mut _, _ -> kind_verdict
    | _, Some m -> join kind_verdict (go m)
    | _, None -> kind_verdict
  in
  go ty0
