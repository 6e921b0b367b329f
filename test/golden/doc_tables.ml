(* Keeps the tables quoted in a document in step with their goldens.

   Usage: doc_tables.exe DOC GOLDEN...

   A fenced block of DOC whose last non-blank line before the fence names
   one of the GOLDEN files (by its base name, e.g. exp-e2.txt) must be a
   run of consecutive lines of that golden, and every GOLDEN must be
   quoted at least once.  Exits 1 with one line per mismatch. *)

let lines path =
  String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

(* [block] occurs in [golden] as consecutive lines. *)
let quoted block golden =
  let rec prefix b g =
    match (b, g) with
    | [], _ -> true
    | x :: b, y :: g -> String.equal x y && prefix b g
    | _ :: _, [] -> false
  in
  let rec go = function [] -> block = [] | _ :: rest as g -> prefix block g || go rest in
  go golden

let () =
  match Array.to_list Sys.argv with
  | _ :: doc :: goldens ->
      let named = List.map (fun p -> (Filename.basename p, lines p)) goldens in
      let used = Hashtbl.create 16 and errors = ref 0 in
      let fail fmt =
        incr errors;
        Printf.eprintf (fmt ^^ "\n")
      in
      let is_fence l = String.length l >= 3 && String.equal (String.sub l 0 3) "```" in
      (* [label] is the last non-blank line before the current one. *)
      let rec scan lineno label = function
        | [] -> ()
        | l :: rest when is_fence l ->
            let rec body acc n = function
              | l :: rest when is_fence l -> (List.rev acc, n + 1, rest)
              | l :: rest -> body (l :: acc) (n + 1) rest
              | [] -> (List.rev acc, n, [])
            in
            let block, len, rest = body [] 1 rest in
            (match List.find_opt (fun (name, _) -> contains ~sub:name label) named with
            | Some (name, golden) ->
                Hashtbl.replace used name ();
                if not (quoted block golden) then
                  fail "%s:%d: the block is not a run of lines of %s" doc lineno name
            | None -> ());
            scan (lineno + len) "" rest
        | l :: rest -> scan (lineno + 1) (if String.trim l = "" then label else l) rest
      in
      scan 1 "" (lines doc);
      List.iter
        (fun (name, _) -> if not (Hashtbl.mem used name) then fail "%s: %s is not quoted" doc name)
        named;
      if !errors > 0 then exit 1
  | _ ->
      prerr_endline "usage: doc_tables.exe DOC GOLDEN...";
      exit 2
