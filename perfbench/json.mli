(** A small JSON writer. *)

type t = Bool of bool | Int of int | Num of float | Str of string | Arr of t list | Obj of (string * t) list

val num : float -> string
(** The shortest decimal that reads back as the same float.  Raises
    [Invalid_argument] on NaN or an infinity, which JSON cannot hold. *)

val compact : t -> string
(** One line. *)

val pretty : t -> string
(** Indented, newline-terminated. *)
