type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ----------------------------- emitter ----------------------------- *)

(* The characters JSON forbids raw inside a string. *)
let[@inline] needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let hex = "0123456789abcdef"

let escape_char buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\b' -> Buffer.add_string buf "\\b"
  | '\012' -> Buffer.add_string buf "\\f"
  | c when Char.code c < 0x20 ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf hex.[Char.code c lsr 4];
      Buffer.add_char buf hex.[Char.code c land 15]
  | c -> Buffer.add_char buf c

(* A string with nothing to escape, which is nearly every key and value
   of the documents, goes in with one [Buffer.add_string]; any other one
   character by character.  Loops rather than an iterator, so nothing
   here allocates. *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let len = String.length s in
  let i = ref 0 in
  while !i < len && not (needs_escape (String.unsafe_get s !i)) do
    incr i
  done;
  if !i = len then Buffer.add_string buf s
  else
    for j = 0 to len - 1 do
      escape_char buf (String.unsafe_get s j)
    done;
  Buffer.add_char buf '"'

(* Decimal digits of the non-positive [m], most significant first: the
   recursion peels the last digit with a division by the constant 10,
   which compiles to a multiply.  Running on -|i| lets [min_int], whose
   negation overflows, need no special case; each digit is -(m mod 10). *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

(* Shortest decimal rendering that parses back to the same float; both
   candidates are valid JSON numbers ("%.17g" may print "1e+16" — fine). *)
let float_repr f =
  let short = Printf.sprintf "%.12g" f in
  if float_of_string short = f then short else Printf.sprintf "%.17g" f

(* Lists and objects render by direct recursion, with no iterator
   closure per container. *)
let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
      if not (Float.is_finite f) then Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr f)
  | Str s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (x :: xs) ->
      Buffer.add_char buf '[';
      to_buffer buf x;
      elements buf xs;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (kv :: kvs) ->
      Buffer.add_char buf '{';
      member buf kv;
      members buf kvs;
      Buffer.add_char buf '}'

and elements buf = function
  | [] -> ()
  | x :: xs ->
      Buffer.add_char buf ',';
      to_buffer buf x;
      elements buf xs

and member buf (k, v) =
  escape_to buf k;
  Buffer.add_char buf ':';
  to_buffer buf v

and members buf = function
  | [] -> ()
  | kv :: kvs ->
      Buffer.add_char buf ',';
      member buf kv;
      members buf kvs

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_channel oc v =
  let buf = Buffer.create 4096 in
  to_buffer buf v;
  Buffer.output_buffer oc buf

(* ----------------------------- parser ------------------------------ *)

exception Parse_error of int * string

let parse_error pos msg = raise (Parse_error (pos, msg))

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> parse_error st.pos (Printf.sprintf "expected %c, got %c" c c')
  | None -> parse_error st.pos (Printf.sprintf "expected %c, got end of input" c)

let literal st word value =
  let len = String.length word in
  if st.pos + len <= String.length st.src && String.sub st.src st.pos len = word then begin
    st.pos <- st.pos + len;
    value
  end
  else parse_error st.pos (Printf.sprintf "expected %s" word)

(* Encode a Unicode scalar value as UTF-8 into the buffer. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 st =
  if st.pos + 4 > String.length st.src then parse_error st.pos "truncated \\u escape";
  let v = int_of_string ("0x" ^ String.sub st.src st.pos 4) in
  st.pos <- st.pos + 4;
  v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> parse_error st.pos "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> begin
        st.pos <- st.pos + 1;
        (match peek st with
        | Some '"' -> Buffer.add_char buf '"'; st.pos <- st.pos + 1
        | Some '\\' -> Buffer.add_char buf '\\'; st.pos <- st.pos + 1
        | Some '/' -> Buffer.add_char buf '/'; st.pos <- st.pos + 1
        | Some 'n' -> Buffer.add_char buf '\n'; st.pos <- st.pos + 1
        | Some 'r' -> Buffer.add_char buf '\r'; st.pos <- st.pos + 1
        | Some 't' -> Buffer.add_char buf '\t'; st.pos <- st.pos + 1
        | Some 'b' -> Buffer.add_char buf '\b'; st.pos <- st.pos + 1
        | Some 'f' -> Buffer.add_char buf '\012'; st.pos <- st.pos + 1
        | Some 'u' ->
            st.pos <- st.pos + 1;
            let u = hex4 st in
            (* Surrogate pair: a high surrogate must be followed by \uDC00-\uDFFF. *)
            if u >= 0xD800 && u <= 0xDBFF then begin
              if
                st.pos + 2 <= String.length st.src
                && st.src.[st.pos] = '\\'
                && st.src.[st.pos + 1] = 'u'
              then begin
                st.pos <- st.pos + 2;
                let lo = hex4 st in
                if lo < 0xDC00 || lo > 0xDFFF then parse_error st.pos "invalid low surrogate";
                add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
              end
              else parse_error st.pos "lone high surrogate"
            end
            else add_utf8 buf u
        | _ -> parse_error st.pos "invalid escape");
        go ()
      end
    | Some c when Char.code c < 0x20 -> parse_error st.pos "raw control character in string"
    | Some c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while match peek st with Some c when is_num_char c -> true | _ -> false do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  let is_floatish = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
  if is_floatish then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> parse_error start (Printf.sprintf "bad number %S" s)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> parse_error start (Printf.sprintf "bad number %S" s))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_error st.pos "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' -> begin
      st.pos <- st.pos + 1;
      skip_ws st;
      match peek st with
      | Some ']' ->
          st.pos <- st.pos + 1;
          List []
      | _ ->
          let rec elems acc =
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                st.pos <- st.pos + 1;
                elems (v :: acc)
            | Some ']' ->
                st.pos <- st.pos + 1;
                List.rev (v :: acc)
            | _ -> parse_error st.pos "expected , or ] in array"
          in
          List (elems [])
    end
  | Some '{' -> begin
      st.pos <- st.pos + 1;
      skip_ws st;
      match peek st with
      | Some '}' ->
          st.pos <- st.pos + 1;
          Obj []
      | _ ->
          let rec members acc =
            skip_ws st;
            let k = parse_string st in
            skip_ws st;
            expect st ':';
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                st.pos <- st.pos + 1;
                members ((k, v) :: acc)
            | Some '}' ->
                st.pos <- st.pos + 1;
                List.rev ((k, v) :: acc)
            | _ -> parse_error st.pos "expected , or } in object"
          in
          Obj (members [])
    end
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> parse_error st.pos (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "at %d: trailing garbage after value" st.pos)
      else Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "at %d: %s" pos msg)

let of_string_exn s =
  match of_string s with
  | Ok v -> v
  | Error e -> invalid_arg ("Obs.Json.of_string_exn: " ^ e)

(* ---------------------------- accessors ---------------------------- *)

let member k = function
  | Obj kvs -> List.find_map (fun (k', v) -> if String.equal k k' then Some v else None) kvs
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list = function List xs -> xs | _ -> []
