(* A single lint finding: where, which rule, why — plus, when an
   enclosing [@lint.allow] matched, the justification that suppressed
   it.  Suppressed findings stay in the report (the whole point of the
   mandatory justification is that the report surfaces it); only
   unsuppressed ones fail the build. *)

type pos = { file : string; line : int; col : int }

type t = {
  rule : string;
  pos : pos;
  unit_name : string; (* canonical unit, e.g. "Blockrep.Runtime" *)
  library : string; (* dune library (or executable) name *)
  message : string;
  justification : string option; (* [Some j] when suppressed by [@lint.allow] *)
}

let make ~rule ~pos ~unit_name ~library ~message ~justification =
  { rule; pos; unit_name; library; message; justification }

let suppressed t = t.justification <> None

let pos_of_location (loc : Location.t) =
  let p = loc.loc_start in
  { file = p.pos_fname; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol }

let compare_by_site a b =
  let c = String.compare a.pos.file b.pos.file in
  if c <> 0 then c
  else
    let c = Int.compare a.pos.line b.pos.line in
    if c <> 0 then c
    else
      let c = Int.compare a.pos.col b.pos.col in
      if c <> 0 then c else String.compare a.rule b.rule

let to_string t =
  let status = match t.justification with None -> "" | Some j -> Printf.sprintf " (allowed: %s)" j in
  Printf.sprintf "%s:%d:%d: [%s] %s%s" t.pos.file t.pos.line t.pos.col t.rule t.message status
