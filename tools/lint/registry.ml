(* The one rule registry: every rule coinlint runs, in report order. *)

let all = Checks.all @ Quorum_rules.all @ Campaign_rules.all

let find name = List.find_opt (fun (r : Engine.rule) -> String.equal r.name name) all
