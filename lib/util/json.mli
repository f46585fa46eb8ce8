(** A JSON document and its writer — the one JSON writer of the tree,
    shared by the paper report and blockrep-lint. *)

type t =
  | Obj of (string * t) list  (** fields in the given order *)
  | Arr of t list
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool
  | Null

val to_string : t -> string
(** Two-space indented, one field or item per line, ending in a newline.
    Floats print with [%.6g]; a non-finite float prints as [null].
    In strings, a quote, a backslash and a newline are escaped with a
    backslash ([\n] for the newline), and any other control character
    prints as [\u00XX]. *)
