type t = {
  mutable names : string array;  (* first-seen order; only [len] live *)
  mutable len : int;
}

let create () = { names = [||]; len = 0 }
let length t = t.len
let get t i = t.names.(i)

let find t name =
  let i = ref 0 in
  while !i < t.len && not (t.names.(!i) == name || String.equal t.names.(!i) name) do
    incr i
  done;
  if !i < t.len then !i else -1

let intern t name =
  let i = find t name in
  if i >= 0 then i
  else begin
    if t.len = Array.length t.names then begin
      let names = Array.make (max 4 (2 * t.len)) "" in
      Array.blit t.names 0 names 0 t.len;
      t.names <- names
    end;
    t.names.(t.len) <- name;
    t.len <- t.len + 1;
    t.len - 1
  end
