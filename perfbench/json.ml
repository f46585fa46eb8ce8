type t = Bool of bool | Int of int | Num of float | Str of string | Arr of t list | Obj of (string * t) list

(* Shortest of %.15g / %.17g that reads back as the same float, so a
   bound of 0.1 prints as 0.1 and a measurement keeps all its digits. *)
let num x =
  if not (Float.is_finite x) then invalid_arg "Json.num: non-finite number";
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec compact = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num x -> num x
  | Str s -> escape s
  | Arr l -> "[" ^ String.concat ", " (List.map compact l) ^ "]"
  | Obj l -> "{" ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ compact v) l) ^ "}"

let is_leaf = function Arr _ | Obj _ -> false | Bool _ | Int _ | Num _ | Str _ -> true

(* Containers of scalars print on one line; anything holding a
   container breaks one member per line. *)
let pretty v =
  let b = Buffer.create 4096 in
  let rec go ind v =
    match v with
    | Arr l when not (List.for_all is_leaf l) ->
        let pad = String.make (ind + 2) ' ' in
        Buffer.add_string b "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b pad;
            go (ind + 2) x)
          l;
        Buffer.add_string b ("\n" ^ String.make ind ' ' ^ "]")
    | Obj l when not (List.for_all (fun (_, x) -> is_leaf x) l) ->
        let pad = String.make (ind + 2) ' ' in
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b (pad ^ escape k ^ ": ");
            go (ind + 2) x)
          l;
        Buffer.add_string b ("\n" ^ String.make ind ' ' ^ "}")
    | v -> Buffer.add_string b (compact v)
  in
  go 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b
