(* Typedtree acquisition for coinlint.

   Two sources, one output shape (a list of [unit_] values):

     - .cmt files produced by the build.  Dune emits them for every
       module it compiles (-bin-annot is on by default), and the `check`
       alias builds them without linking; we scan `_build/default` (or
       the cwd when dune itself invoked us — dune actions run from inside
       the build directory with INSIDE_DUNE set, where a recursive
       `dune build` would deadlock on the build lock) and keep the units
       whose recorded source file falls under a requested root.  When no
       .cmt exists yet and we are *not* under dune, we drive
       `dune build @check` ourselves, once.

     - in-process typechecking of a source string against the compiler's
       initial environment.  This is how the test-suite fixtures run:
       no files, no build, same Typedtree the rules see in production.

   Loading a .cmt only unmarshals the stored tree — no type environment
   reconstruction — so coinlint never recompiles anything the build has
   not already paid for. *)

type unit_ = {
  rel : string;      (* source path as recorded by the compiler, e.g. lib/core/coin.ml *)
  modname : string;  (* demangled module name, e.g. Coin *)
  structure : Typedtree.structure;
}

(* "Core__Coin" -> "Coin", "Stdlib__Random" -> "Random"; a pure alias
   module like dune's "Core__" demangles to nothing and is dropped from
   paths entirely. *)
let demangle name =
  let n = String.length name in
  let rec last_sep i = if i <= 0 then None else if name.[i] = '_' && name.[i - 1] = '_' then Some i else last_sep (i - 1) in
  match last_sep (n - 1) with
  | None -> Some name
  | Some i ->
      let rest = String.sub name (i + 1) (n - i - 1) in
      if String.equal rest "" then None else Some (String.capitalize_ascii rest)

let inside_dune () = Sys.getenv_opt "INSIDE_DUNE" <> None

(* Where the compiled artefacts live.  Dune sets INSIDE_DUNE to the build
   context directory both for rule actions (whose cwd already is that
   directory) and for `dune exec` (whose cwd is the source root), so the
   variable's value is the most reliable base; outside dune we look for
   the conventional _build/default next to the cwd. *)
let build_base () =
  match Sys.getenv_opt "INSIDE_DUNE" with
  | Some v when Sys.file_exists v && Sys.is_directory v -> Some v
  | Some _ -> Some "."
  | None ->
      let b = Filename.concat "_build" "default" in
      if Sys.file_exists b && Sys.is_directory b then Some b else None

(* Every .cmt under base/<root>, including the hidden .objs directories
   dune buries them in; deterministic order. *)
let cmt_paths ~base roots =
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort String.compare entries;
        Array.iter
          (fun entry ->
            let path = Filename.concat dir entry in
            if Sys.is_directory path then walk path
            else if Filename.check_suffix entry ".cmt" then acc := path :: !acc)
          entries
    | exception Sys_error _ -> ()
  in
  List.iter
    (fun root ->
      let dir = if String.equal base "." then root else Filename.concat base root in
      if Sys.file_exists dir && Sys.is_directory dir then walk dir)
    roots;
  List.sort String.compare !acc

let source_under roots src =
  List.exists
    (fun root ->
      String.equal src root
      ||
      let prefix = root ^ "/" in
      String.length src > String.length prefix
      && String.equal (String.sub src 0 (String.length prefix)) prefix)
    roots

let load_cmt path =
  match Cmt_format.read_cmt path with
  | { cmt_annots = Implementation structure; cmt_sourcefile = Some rel; cmt_modname; _ } ->
      Some { rel; modname = Option.value ~default:cmt_modname (demangle cmt_modname); structure }
  | _ -> None
  | exception _ -> None  (* unreadable / wrong-version .cmt: the build will complain, not us *)

let scan ~base roots =
  let units = List.filter_map load_cmt (cmt_paths ~base roots) in
  let units = List.filter (fun u -> source_under roots u.rel) units in
  (* One unit per source file: a module compiled for both byte and native
     appears once per mode with identical trees. *)
  let seen = ref [] in
  List.filter
    (fun u ->
      if List.exists (String.equal u.rel) !seen then false
      else begin
        seen := u.rel :: !seen;
        true
      end)
    (List.sort (fun a b -> String.compare a.rel b.rel) units)

(* Load the units under [roots].  [allow_build] (default true) permits
   driving `dune build @check` when nothing is compiled yet; it is forced
   off under dune, where the artefacts are declared as rule deps
   instead. *)
let load ?(allow_build = true) roots =
  let attempt () = match build_base () with Some base -> scan ~base roots | None -> [] in
  let units = attempt () in
  if units <> [] then units
  else if allow_build && (not (inside_dune ())) && Sys.file_exists "dune-project" then begin
    ignore (Sys.command "dune build @check 2>/dev/null");
    attempt ()
  end
  else units

(* ----------------------- in-process typechecking ---------------------- *)

(* Initial environment for fixture typechecking: the stdlib plus any
   compiler-distributed cmi directories that exist (unix, so real-world
   snippets typecheck too).  Warnings are silenced — fixtures exercise
   rules, not the compiler's style opinions. *)
let tc_env =
  lazy
    (Clflags.dont_write_files := true;
     let unix_dir = Filename.concat Config.standard_library "unix" in
     if Sys.file_exists unix_dir then Clflags.include_dirs := unix_dir :: !Clflags.include_dirs;
     Compmisc.init_path ();
     ignore (Warnings.parse_options false "-a");
     Compmisc.initial_env ())

let typecheck_impl ~filename source =
  let env = Lazy.force tc_env in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  let ast = Parse.implementation lexbuf in
  let structure, _, _, _, _ = Typemod.type_structure env ast in
  structure

let modname_of_rel rel =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

(* Typecheck a source string into a unit.  Raises on input that does not
   parse or typecheck; Engine.lint_source turns that into a "typecheck"
   finding. *)
let unit_of_source ~rel source =
  { rel; modname = modname_of_rel rel; structure = typecheck_impl ~filename:rel source }
