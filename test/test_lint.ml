(* Tests for blockrep-lint against the deliberately good/bad modules in
   test/lint_fixtures/.  The linter reads the fixtures' .cmt files from
   the build tree (tests run inside _build/default/test, and the
   fixture library is a link-time dependency, so its object dir is
   always present and fresh).  Counts are exact: a fixture that stops
   producing its finding, or starts producing an extra one, is a rule
   regression either way. *)

module C = Lint.Config
module F = Lint.Finding

(* Scope the library-gated rules to the fixture library, mark fixture
   types as protocol types for the poly-compare rule (so the pure-enum
   exemption is exercised), and register the fixtures' charging
   functions. *)
let cfg =
  {
    C.default with
    C.determinism_libs = [ "lint_fixtures" ];
    C.hashtbl_libs = [ "lint_fixtures" ];
    C.partiality_libs = [ "lint_fixtures" ];
    C.suspicious_prefixes = "Lint_fixtures." :: C.default.C.suspicious_prefixes;
    C.shared_global_libs = [ "lint_fixtures" ];
    C.charging =
      ("Lint_fixtures.Fx_wire_bad", "bad_category")
      :: ("Lint_fixtures.Fx_wire_good", "good_category")
      :: ("Lint_fixtures.Fx_codec_bad", "bad_tag_of")
      :: ("Lint_fixtures.Fx_codec_good", "good_tag_of")
      :: C.default.C.charging;
  }

let scan = lazy (Lint.Driver.run_dirs ~cfg ~root:"." ~dirs:[ "lint_fixtures" ])
let unit_of fx = "Lint_fixtures." ^ fx

let in_unit fx =
  List.filter (fun (f : F.t) -> f.F.unit_name = unit_of fx) (Lazy.force scan)

let count ?(suppressed = false) fx rule =
  List.length
    (List.filter (fun (f : F.t) -> f.F.rule = rule && F.suppressed f = suppressed) (in_unit fx))

let check_count ?suppressed fx rule expected =
  Alcotest.(check int)
    (Printf.sprintf "%s %s%s" fx rule
       (match suppressed with Some true -> " (suppressed)" | _ -> ""))
    expected
    (count ?suppressed fx rule)

let check_silent fx =
  let fs = in_unit fx in
  List.iter (fun f -> Printf.printf "unexpected: %s\n" (F.to_string f)) fs;
  Alcotest.(check int) (fx ^ " is clean") 0 (List.length fs)

(* ------------------------------------------------------------------ *)

let test_determinism () =
  check_count "Fx_determinism_bad" C.rule_determinism 3;
  check_silent "Fx_determinism_good"

let test_hashtbl () =
  check_count "Fx_hashtbl_bad" C.rule_hashtbl 2;
  let flows =
    List.filter
      (fun (f : F.t) ->
        let msg = f.F.message in
        let sub = "flows into a list" in
        let n = String.length sub in
        let rec at i = i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1)) in
        at 0)
      (in_unit "Fx_hashtbl_bad")
  in
  Alcotest.(check int) "fold into a list is called out" 1 (List.length flows);
  check_silent "Fx_hashtbl_good"

let test_poly_compare () =
  check_count "Fx_polycompare_bad" C.rule_poly_compare 4;
  check_silent "Fx_polycompare_good"

let test_wire () =
  check_count "Fx_wire_bad" C.rule_wire 2;
  check_silent "Fx_wire_good"

let test_codec () =
  check_count "Fx_codec_bad" C.rule_wire 2;
  check_silent "Fx_codec_good"

let test_partiality () =
  check_count "Fx_partiality_bad" C.rule_partiality 5;
  check_silent "Fx_partiality_good"

let test_capture () =
  (* Hashtbl mutation, array read, ref mutation: one domain-capture
     each; the unblessed merge helper is the distinct merge-only case. *)
  check_count "Fx_capture_bad" C.rule_capture 3;
  check_count "Fx_capture_bad" C.rule_merge_only 1;
  check_count "Fx_capture_bad" C.rule_shared_global 0;
  (* Immutable capture, lane-fresh Hashtbl, Atomic.t, the blessed
     Traffic.accumulate merge, and a resolved local helper: silent. *)
  check_silent "Fx_capture_good"

let test_shared_global () =
  (* ref, Hashtbl, Bytes, mutable record field, closure-hidden memo
     table, Atomic global. *)
  check_count "Fx_global_bad" C.rule_shared_global 6;
  check_count "Fx_global_bad" C.rule_capture 0;
  (* Scalars, strings, lists, constant constructors, Set.Make sets and
     plain functions are not shared state. *)
  check_silent "Fx_global_good"

let test_capture_allowed () =
  check_count ~suppressed:true "Fx_capture_allowed" C.rule_capture 1;
  check_count ~suppressed:true "Fx_capture_allowed" C.rule_shared_global 1;
  check_count "Fx_capture_allowed" C.rule_capture 0;
  check_count "Fx_capture_allowed" C.rule_shared_global 0

let test_allow () =
  (* A well-formed allow suppresses; the finding stays in the report
     with its justification attached. *)
  check_count ~suppressed:true "Fx_allow" C.rule_hashtbl 1;
  check_count ~suppressed:true "Fx_allow" C.rule_determinism 1;
  List.iter
    (fun (f : F.t) ->
      if F.suppressed f then
        match f.F.justification with
        | Some j -> Alcotest.(check bool) "justification is non-blank" false (String.trim j = "")
        | None -> Alcotest.fail "suppressed finding without justification")
    (in_unit "Fx_allow");
  (* An allow missing (or blanking) its justification is itself a
     finding, and the finding it meant to hide still fires. *)
  check_count "Fx_allow" C.rule_allow 3;
  check_count "Fx_allow" C.rule_hashtbl 2

let test_summary () =
  let s = Lint.Report.summarize (Lazy.force scan) in
  Alcotest.(check int) "unsuppressed" 33 s.Lint.Report.unsuppressed;
  Alcotest.(check int) "suppressed" 4 s.Lint.Report.suppressed;
  Alcotest.(check bool) "fixtures are not clean" false (Lint.Report.clean (Lazy.force scan));
  Alcotest.(check int)
    "internal errors" 0
    (List.length
       (List.filter (fun (f : F.t) -> f.F.rule = C.rule_internal) (Lazy.force scan)))

(* The production policy over the real tree: every library the test
   suite links is already built next to us, so scan it and require the
   same cleanliness `dune build @lint` enforces. *)
let test_real_tree_clean () =
  if not (Sys.file_exists "../lib") then ()
  else begin
    let findings = Lint.Driver.run_dirs ~cfg:C.default ~root:".." ~dirs:[ "lib" ] in
    let bad = List.filter (fun f -> not (F.suppressed f)) findings in
    List.iter (fun f -> Printf.printf "unexpected: %s\n" (F.to_string f)) bad;
    Alcotest.(check int) "lib/ lints clean" 0 (List.length bad)
  end

(* PR 8 claimed Codec.Buf's counting mode is domain-safe in a comment;
   the analyzer now proves it.  The codec library is inside
   shared_global_libs, so any hidden global or leaked capture would
   surface here — and Codec.Buf itself must produce nothing at all,
   not even a suppressed finding. *)
let test_codec_domain_safe () =
  if not (Sys.file_exists "../lib") then ()
  else begin
    let findings = Lint.Driver.run_dirs ~cfg:C.default ~root:".." ~dirs:[ "lib/codec" ] in
    let in_buf = List.filter (fun (f : F.t) -> f.F.unit_name = "Codec.Buf") findings in
    List.iter (fun f -> Printf.printf "unexpected: %s\n" (F.to_string f)) in_buf;
    Alcotest.(check int) "Codec.Buf is finding-free (suppressed included)" 0 (List.length in_buf);
    let domain_rules = [ C.rule_capture; C.rule_shared_global; C.rule_merge_only ] in
    let bad =
      List.filter
        (fun (f : F.t) -> List.mem f.F.rule domain_rules && not (F.suppressed f))
        findings
    in
    List.iter (fun f -> Printf.printf "unexpected: %s\n" (F.to_string f)) bad;
    Alcotest.(check int) "codec library is domain-safe" 0 (List.length bad)
  end

(* The JSON and SARIF renderings, pinned byte for byte: one unsuppressed
   finding whose message needs escaping, one suppressed finding. *)
let pinned_findings =
  let pos file line col = { F.file; line; col } in
  [
    F.make ~rule:"partiality" ~pos:(pos "lib/a.ml" 3 4) ~unit_name:"A" ~library:"a"
      ~message:"say \"no\"\n\tthen stop" ~justification:None;
    F.make ~rule:"hashtbl-order" ~pos:(pos "lib/b.ml" 0 0) ~unit_name:"B" ~library:"b"
      ~message:"unordered" ~justification:(Some "keys are distinct");
  ]

let expected_json =
  {|{
  "version": 1,
  "summary": {
    "total": 2,
    "unsuppressed": 1,
    "suppressed": 1,
    "by_rule": {
      "determinism": 0,
      "hashtbl-order": 0,
      "poly-compare": 0,
      "wire-exhaustive": 0,
      "partiality": 1,
      "domain-capture": 0,
      "shared-global": 0,
      "merge-only-sharing": 0,
      "lint-allow": 0,
      "lint-internal": 0
    }
  },
  "findings": [
    {
      "rule": "partiality",
      "file": "lib/a.ml",
      "line": 3,
      "col": 4,
      "unit": "A",
      "library": "a",
      "message": "say \"no\"\n\u0009then stop",
      "suppressed": false,
      "justification": null
    },
    {
      "rule": "hashtbl-order",
      "file": "lib/b.ml",
      "line": 0,
      "col": 0,
      "unit": "B",
      "library": "b",
      "message": "unordered",
      "suppressed": true,
      "justification": "keys are distinct"
    }
  ]
}
|}

let expected_sarif =
  {|{
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "blockrep-lint",
          "informationUri": "https://example.invalid/blockrep",
          "rules": [
            {
              "id": "determinism",
              "shortDescription": {
                "text": "No wall clocks or unseeded randomness inside the simulation envelope"
              }
            },
            {
              "id": "hashtbl-order",
              "shortDescription": {
                "text": "Unordered Hashtbl iteration must be laundered through a sort or justified"
              }
            },
            {
              "id": "poly-compare",
              "shortDescription": {
                "text": "No structural compare at wire, closure-carrying or tree-backed types"
              }
            },
            {
              "id": "wire-exhaustive",
              "shortDescription": {
                "text": "Wire dispatches enumerate constructors; charging maps each exactly once"
              }
            },
            {
              "id": "partiality",
              "shortDescription": {
                "text": "No partial stdlib functions or assert false in protocol code"
              }
            },
            {
              "id": "domain-capture",
              "shortDescription": {
                "text": "Thunks crossing a domain boundary must not capture transitively-mutable state"
              }
            },
            {
              "id": "shared-global",
              "shortDescription": {
                "text": "No top-level mutable state in sim-critical libraries"
              }
            },
            {
              "id": "merge-only-sharing",
              "shortDescription": {
                "text": "Lanes may share mutable state only through blessed merge points"
              }
            },
            {
              "id": "lint-allow",
              "shortDescription": {
                "text": "[@lint.allow] needs a known rule and a non-blank justification"
              }
            },
            {
              "id": "lint-internal",
              "shortDescription": {
                "text": "The linter could not read or analyse a compilation unit"
              }
            }
          ]
        }
      },
      "results": [
        {
          "ruleId": "partiality",
          "level": "error",
          "message": {
            "text": "say \"no\"\n\u0009then stop"
          },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": {
                  "uri": "lib/a.ml"
                },
                "region": {
                  "startLine": 3,
                  "startColumn": 5
                }
              }
            }
          ],
          "suppressions": []
        },
        {
          "ruleId": "hashtbl-order",
          "level": "error",
          "message": {
            "text": "unordered"
          },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": {
                  "uri": "lib/b.ml"
                },
                "region": {
                  "startLine": 1,
                  "startColumn": 1
                }
              }
            }
          ],
          "suppressions": [
            {
              "kind": "inSource",
              "justification": "keys are distinct"
            }
          ]
        }
      ]
    }
  ]
}
|}

let test_report_json () =
  Alcotest.(check string) "json" expected_json (Lint.Report.to_json pinned_findings)

let test_report_sarif () =
  Alcotest.(check string) "sarif" expected_sarif (Lint.Report.to_sarif pinned_findings)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "hashtbl order" `Quick test_hashtbl;
          Alcotest.test_case "poly compare" `Quick test_poly_compare;
          Alcotest.test_case "wire exhaustiveness" `Quick test_wire;
          Alcotest.test_case "codec tag exhaustiveness" `Quick test_codec;
          Alcotest.test_case "partiality" `Quick test_partiality;
          Alcotest.test_case "domain capture" `Quick test_capture;
          Alcotest.test_case "shared globals" `Quick test_shared_global;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "lint.allow machinery" `Quick test_allow;
          Alcotest.test_case "domain-safety suppressions" `Quick test_capture_allowed;
          Alcotest.test_case "summary totals" `Quick test_summary;
        ] );
      ( "report",
        [
          Alcotest.test_case "json rendering" `Quick test_report_json;
          Alcotest.test_case "sarif rendering" `Quick test_report_sarif;
        ] );
      ( "policy",
        [
          Alcotest.test_case "real tree lints clean" `Quick test_real_tree_clean;
          Alcotest.test_case "codec domain-safe" `Quick test_codec_domain_safe;
        ] );
    ]
