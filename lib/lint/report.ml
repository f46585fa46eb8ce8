(* Rendering: a human report grouped by file, and JSON and SARIF
   documents (built as [Util.Json.t]) for the CI artifacts.  Suppressed
   findings are listed with their justifications — a suppression is a
   visible, reviewed decision, not a way to make a finding disappear. *)

type summary = {
  total : int;
  unsuppressed : int;
  suppressed : int;
  by_rule : (string * int) list; (* unsuppressed counts, every rule listed *)
}

let summarize findings =
  let unsuppressed = List.filter (fun f -> not (Finding.suppressed f)) findings in
  let by_rule =
    List.map
      (fun rule ->
        (rule, List.length (List.filter (fun (f : Finding.t) -> f.Finding.rule = rule) unsuppressed)))
      Config.rule_ids
  in
  {
    total = List.length findings;
    unsuppressed = List.length unsuppressed;
    suppressed = List.length findings - List.length unsuppressed;
    by_rule;
  }

let clean findings = (summarize findings).unsuppressed = 0

(* An unreadable .cmt is an analysis failure, not a code finding: CI
   must be able to tell "the tree is dirty" (exit 1) from "the linter
   could not do its job" (exit 2). *)
let internal_error findings =
  List.exists
    (fun (f : Finding.t) -> f.Finding.rule = Config.rule_internal && not (Finding.suppressed f))
    findings

let pp_human ppf findings =
  let s = summarize findings in
  let active = List.filter (fun f -> not (Finding.suppressed f)) findings in
  let quiet = List.filter Finding.suppressed findings in
  if active <> [] then begin
    Format.fprintf ppf "Findings:@.";
    List.iter (fun f -> Format.fprintf ppf "  %s@." (Finding.to_string f)) active
  end;
  if quiet <> [] then begin
    Format.fprintf ppf "Suppressed (each carries a reviewed justification):@.";
    List.iter (fun f -> Format.fprintf ppf "  %s@." (Finding.to_string f)) quiet
  end;
  Format.fprintf ppf "blockrep-lint: %d finding%s (%d unsuppressed, %d suppressed)@." s.total
    (if s.total = 1 then "" else "s")
    s.unsuppressed s.suppressed;
  if s.unsuppressed > 0 then begin
    Format.fprintf ppf "by rule:";
    List.iter (fun (r, n) -> if n > 0 then Format.fprintf ppf " %s=%d" r n) s.by_rule;
    Format.fprintf ppf "@."
  end

let finding_json (f : Finding.t) =
  let open Util.Json in
  Obj
    [
      ("rule", Str f.rule);
      ("file", Str f.pos.file);
      ("line", Int f.pos.line);
      ("col", Int f.pos.col);
      ("unit", Str f.unit_name);
      ("library", Str f.library);
      ("message", Str f.message);
      ("suppressed", Bool (Finding.suppressed f));
      ("justification", match f.justification with None -> Null | Some j -> Str j);
    ]

let to_json findings =
  let open Util.Json in
  let s = summarize findings in
  to_string
    (Obj
       [
         ("version", Int 1);
         ( "summary",
           Obj
             [
               ("total", Int s.total);
               ("unsuppressed", Int s.unsuppressed);
               ("suppressed", Int s.suppressed);
               ("by_rule", Obj (List.map (fun (r, n) -> (r, Int n)) s.by_rule));
             ] );
         ("findings", Arr (List.map finding_json findings));
       ])

(* SARIF 2.1.0, the exchange format GitHub code scanning ingests: each
   finding becomes a [result] with a physical location, suppressed
   findings carry a [suppressions] entry (code scanning then shows them
   as reviewed rather than open), and the rule metadata comes from
   [Config.rule_descriptions]. *)
let sarif_result (f : Finding.t) =
  let open Util.Json in
  let region = Obj [ ("startLine", Int (max 1 f.pos.line)); ("startColumn", Int (f.pos.col + 1)) ] in
  let location =
    Obj
      [
        ( "physicalLocation",
          Obj [ ("artifactLocation", Obj [ ("uri", Str f.pos.file) ]); ("region", region) ] );
      ]
  in
  let suppressions =
    match f.justification with
    | None -> []
    | Some j -> [ Obj [ ("kind", Str "inSource"); ("justification", Str j) ] ]
  in
  Obj
    [
      ("ruleId", Str f.rule);
      ("level", Str "error");
      ("message", Obj [ ("text", Str f.message) ]);
      ("locations", Arr [ location ]);
      ("suppressions", Arr suppressions);
    ]

let to_sarif findings =
  let open Util.Json in
  let rule id =
    let desc = Option.value (List.assoc_opt id Config.rule_descriptions) ~default:id in
    Obj [ ("id", Str id); ("shortDescription", Obj [ ("text", Str desc) ]) ]
  in
  let driver =
    Obj
      [
        ("name", Str "blockrep-lint");
        ("informationUri", Str "https://example.invalid/blockrep");
        ("rules", Arr (List.map rule Config.rule_ids));
      ]
  in
  let run = Obj [ ("tool", Obj [ ("driver", driver) ]); ("results", Arr (List.map sarif_result findings)) ] in
  to_string
    (Obj
       [
         ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
         ("version", Str "2.1.0");
         ("runs", Arr [ run ]);
       ])
