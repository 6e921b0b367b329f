(* coinlint CLI.

   Usage:
     dune exec tools/lint/main.exe -- [options] [dir-or-file ...]
       --json PATH     also write the findings document (PATH "-" = stdout)
       --baseline P    suppress findings present in a previously saved
                       coincidence.lint report (keyed by rule/file/symbol)
       --baseline-strict
                       exit non-zero when any baseline entry is stale
                       (matches no current finding)
       --baseline-gc   rewrite the --baseline file in place, dropping its
                       stale entries (implies that staleness alone does
                       not fail the run)
       --only NAMES    comma-separated subset of rules (default: all)
       --list-rules    print the registry and exit (takes no other args)
       --root DIR      chdir to DIR before scanning
     default scan set: lib bin bench

   coinlint reads the .cmt files of `dune build @check`: it reuses
   _build/default when present (or the cwd under dune, where rule deps
   guarantee them) and otherwise drives `dune build @check` once itself.

   Exit status: 0 clean, 1 findings (or stale baseline under
   --baseline-strict), 2 usage/IO error. *)

let usage () =
  prerr_endline
    "usage: coinlint [--json PATH] [--baseline PATH] [--baseline-strict] [--baseline-gc] [--only \
     r1,r2] [--list-rules] [--root DIR] [paths...]";
  exit 2

let fail fmt = Format.kasprintf (fun s -> prerr_endline ("coinlint: " ^ s); exit 2) fmt

let () =
  let json_out = ref None in
  let root = ref None in
  let only = ref None in
  let baseline_path = ref None in
  let baseline_strict = ref false in
  let baseline_gc = ref false in
  let list_rules = ref false in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: p :: rest ->
        json_out := Some p;
        parse rest
    | "--root" :: d :: rest ->
        root := Some d;
        parse rest
    | "--only" :: names :: rest ->
        only := Some (String.split_on_char ',' names);
        parse rest
    | "--baseline" :: p :: rest ->
        baseline_path := Some p;
        parse rest
    | "--baseline-strict" :: rest ->
        baseline_strict := true;
        parse rest
    | "--baseline-gc" :: rest ->
        baseline_gc := true;
        parse rest
    | "--list-rules" :: rest ->
        list_rules := true;
        parse rest
    | ("--json" | "--root" | "--only" | "--baseline") :: [] -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        Format.eprintf "coinlint: unknown option %s@." arg;
        usage ()
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_rules then begin
    (* A listing that silently ignored other arguments would mask typos
       like `--list-rules lib`; reject anything else on the line. *)
    if Array.length Sys.argv <> 2 then begin
      prerr_endline "coinlint: --list-rules takes no other arguments";
      usage ()
    end;
    List.iter
      (fun (r : Coinlint.Engine.rule) -> Format.printf "%-24s %s@." r.name r.summary)
      Coinlint.Registry.all;
    exit 0
  end;
  (match !root with Some d -> (try Sys.chdir d with Sys_error e -> fail "%s" e) | None -> ());
  (* An unknown name is a hard usage error: a typo that silently selected
     nothing would report "clean" for the wrong reason. *)
  let rules =
    match !only with
    | None -> Coinlint.Registry.all
    | Some names ->
        List.map
          (fun n ->
            match Coinlint.Registry.find n with
            | Some r -> r
            | None ->
                fail "unknown rule %S; valid names: %s" n
                  (String.concat ", "
                     (List.map (fun (r : Coinlint.Engine.rule) -> r.name) Coinlint.Registry.all)))
          names
  in
  let baseline =
    match !baseline_path with
    | None -> []
    | Some p -> (
        match Coinlint.Engine.load_baseline p with
        | Ok keys -> keys
        | Error e -> fail "cannot load baseline: %s" e)
  in
  let roots = match !paths with [] -> [ "lib"; "bin"; "bench" ] | ps -> List.rev ps in
  List.iter (fun p -> if not (Sys.file_exists p) then fail "no such path %s" p) roots;
  let units = Coinlint.Cmt_loader.load roots in
  if units = [] then
    fail "found no .cmt files under %s: run `dune build @check` first" (String.concat " " roots);
  let findings, baseline_suppressed, stale_baseline =
    Coinlint.Engine.apply_baseline ~baseline (Coinlint.Engine.lint_units ~rules units)
  in
  (* With --json -, stdout is the machine report; keep the human one on
     stderr so the two never interleave. *)
  let human_fmt =
    match !json_out with Some "-" -> Format.err_formatter | Some _ | None -> Format.std_formatter
  in
  Coinlint.Engine.print_human human_fmt ~units:(List.length units) findings;
  List.iter
    (fun (b : Coinlint.Engine.baseline_key) ->
      Format.fprintf human_fmt "note: [stale-baseline] %s at %s%s matches no finding@." b.b_rule
        b.b_file
        (if String.equal b.b_symbol "" then "" else Printf.sprintf " (in %s)" b.b_symbol))
    stale_baseline;
  let report () =
    Coinlint.Engine.json_report
      ~rules:(List.map (fun (r : Coinlint.Engine.rule) -> r.name) rules)
      ~units:(List.length units) ~baseline_suppressed ~stale_baseline findings
  in
  (match !json_out with
  | Some "-" -> print_endline (Obs.Json.to_string (report ()))
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Obs.Json.to_channel oc (report ());
          output_char oc '\n')
  | None -> ());
  (* --baseline-gc repairs staleness instead of (with --baseline-strict)
     failing on it: the rewritten file no longer contains the entries
     just reported as stale. *)
  if !baseline_gc then begin
    match !baseline_path with
    | None -> fail "--baseline-gc requires --baseline"
    | Some p ->
        if stale_baseline <> [] then (
          match Coinlint.Engine.gc_baseline_file p ~stale:stale_baseline with
          | Ok dropped ->
              Format.fprintf human_fmt "note: [baseline-gc] dropped %d stale entr%s from %s@."
                dropped
                (if dropped = 1 then "y" else "ies")
                p
          | Error e -> fail "baseline-gc: %s" e)
  end;
  let stale_fails = !baseline_strict && (not !baseline_gc) && stale_baseline <> [] in
  exit (if findings = [] && not stale_fails then 0 else 1)
