(* The tree's one JSON writer (no JSON library in the dependencies): the
   paper report's BENCH_results.json and blockrep-lint's JSON and SARIF
   reports are all built as [t] values and printed by [to_string]. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool
  | Null

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec emit buf indent = function
  | Str s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (escape s))
  | Num f ->
      (* JSON has no NaN/inf; e.g. a cache hit rate before any read is NaN. *)
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Null -> Buffer.add_string buf "null"
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          emit buf (indent + 2) item)
        items;
      Buffer.add_string buf ("\n" ^ String.make indent ' ' ^ "]")
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (Printf.sprintf "%s\"%s\": " pad (escape k));
          emit buf (indent + 2) v)
        fields;
      Buffer.add_string buf ("\n" ^ String.make indent ' ' ^ "}")

let to_string t =
  let buf = Buffer.create 4096 in
  emit buf 0 t;
  Buffer.add_char buf '\n';
  Buffer.contents buf
