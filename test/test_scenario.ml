(* Tests for the scenario DSL: parser behaviour, executor semantics, and
   the shipped corpus of .scn files. *)

let parse_ok text =
  match Scenario.parse text with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse failed: %s" e

let parse_err text =
  match Scenario.parse text with Ok _ -> Alcotest.fail "parse should have failed" | Error e -> e

let run_ok text =
  match Scenario.check text with
  | Ok () -> ()
  | Error failures -> Alcotest.failf "scenario failed:\n%s" (String.concat "\n" failures)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_minimal () =
  ignore (parse_ok "scheme nac\nsites 3\n@1 fail 0\n")

let test_parse_requires_scheme () =
  let e = parse_err "sites 3\n@1 fail 0\n" in
  Alcotest.(check bool) "mentions scheme" true (String.length e > 0 && String.exists (fun _ -> true) e);
  Alcotest.(check string) "message" "missing 'scheme' directive" e

let test_parse_requires_sites () =
  Alcotest.(check string) "message" "missing 'sites' directive" (parse_err "scheme ac\n@1 heal\n")

let test_parse_rejects_bad_command () =
  let e = parse_err "scheme ac\nsites 3\n@1 explode 0\n" in
  Alcotest.(check bool) "line number in error" true
    (String.length e >= 6 && String.sub e 0 6 = "line 3")

let test_parse_rejects_bad_time () =
  let e = parse_err "scheme ac\nsites 3\n@abc fail 0\n" in
  Alcotest.(check bool) "bad time reported" true (String.length e > 0)

let test_parse_comments_and_blanks () =
  let t = parse_ok "# top\nscheme nac\n\nsites 2   # trailing\n@1 fail 0  # why not\n\n" in
  ignore t

let test_parse_partition_groups () =
  ignore (parse_ok "scheme voting\nsites 5\n@1 partition 0 1 | 2 3 4\n@2 heal\n")

let test_parse_witnesses_directive () =
  ignore (parse_ok "scheme voting\nsites 3\nwitnesses 2\n@1 fail 0\n")

let test_parse_fault_directives () =
  ignore
    (parse_ok
       "scheme voting\nsites 3\nfault-drop 0.1\nfault-duplicate 0.05\nfault-reorder 0.2\n\
        fault-jitter 2.0\nfault-delay 0.25\n@1 fail 0\n")

let test_parse_rejects_bad_fault_probability () =
  let e = parse_err "scheme voting\nsites 3\nfault-drop 1.5\n@1 fail 0\n" in
  Alcotest.(check bool) "bad fault directive reported" true (String.length e > 0)

(* Text that used to parse and then crash or hang the run: each must now be a
   parse error, and [check] must return it rather than raise. *)
let test_parse_rejects_out_of_range () =
  let header = "scheme ac\nsites 3\nblocks 8\nservice-model true\n" in
  List.iter
    (fun line ->
      let text = header ^ line ^ "\n" in
      (match Scenario.parse text with
      | Ok _ -> Alcotest.failf "%S parsed" line
      | Error _ -> ());
      match Scenario.check text with
      | Ok () -> Alcotest.failf "%S passed" line
      | Error _ -> ())
    [
      "sites 0";
      "sites 1025";
      "sites 4611686018427387903";
      "latency -1";
      "horizon -5";
      "latency nan";
      "fault-delay inf";
      "@1 fail 99";
      "@1 write 0 99 x";
      "@1 bitrot 0 99";
      "@1 partition 0 | 3";
      "@1 expect-read -1 0 x";
      "@1 slow-site 0 0";
      "@1 queue-flood 0 -1";
      "@-1 heal";
    ]

let test_faulty_scenario_still_passes_expectations () =
  (* A lossy wire plus the retry layer: the scenario's expectations must
     still hold because synchronous operations ride the engine until their
     round resolves. *)
  run_ok
    {|
scheme nac
sites 3
seed 11
fault-duplicate 0.2
fault-delay 0.1
@1  write 0 0 hello
@5  expect-read 0 0 hello
@9  expect-available true
|}

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

let test_run_passing_expectations () =
  run_ok
    {|
scheme nac
sites 3
@1  write 0 0 hello
@5  expect-read 0 0 hello
@6  expect-available true
@10 expect-consistent
|}

let test_run_detects_wrong_payload () =
  match Scenario.check "scheme nac\nsites 3\n@1 write 0 0 real\n@5 expect-read 0 0 bogus\n" with
  | Ok () -> Alcotest.fail "expected a failure"
  | Error [ failure ] ->
      Alcotest.(check bool) "names the line" true (String.sub failure 0 6 = "line 4")
  | Error other -> Alcotest.failf "unexpected failures: %s" (String.concat ";" other)

let test_run_detects_wrong_state () =
  match Scenario.check "scheme ac\nsites 3\n@1 fail 1\n@2 expect-state 1 available\n" with
  | Ok () -> Alcotest.fail "expected a failure"
  | Error failures -> Alcotest.(check int) "one failure" 1 (List.length failures)

let test_run_collects_multiple_failures () =
  match
    Scenario.check
      "scheme ac\nsites 3\n@1 fail 1\n@2 expect-state 1 available\n@3 expect-available false\n"
  with
  | Ok () -> Alcotest.fail "expected failures"
  | Error failures -> Alcotest.(check int) "both reported" 2 (List.length failures)

let test_run_media_fault_actions () =
  (* The storage-fault actions end-to-end: a rotted copy is healed by
     read-repair at the moment it is read; a torn crash write is replayed
     by the recovery scrub; a replaced disk is regenerated by the ordinary
     recovery exchange.  All invisible to the expectations. *)
  run_ok
    {|
scheme ac
sites 3
@1  write 0 0 precious
@3  bitrot 1 0
@4  expect-read 1 0 precious
@6  crash-torn 2
@10 repair 2
@14 disk-replace 0
@18 repair 0
@40 expect-read 0 0 precious
@41 expect-read 2 0 precious
@42 expect-consistent
|}

let test_parse_media_fault_arity () =
  ignore (parse_err "scheme ac\nsites 3\n@1 bitrot 1\n" : string);
  ignore (parse_err "scheme ac\nsites 3\n@1 crash-torn\n" : string);
  ignore (parse_err "scheme ac\nsites 3\n@1 disk-replace\n" : string)

(* Tiny substring helper (no external deps). *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_run_write_failure_reported () =
  match Scenario.check "scheme voting\nsites 3\n@1 fail 1\n@2 fail 2\n@3 write 0 0 x\n" with
  | Ok () -> Alcotest.fail "write without quorum must be reported"
  | Error [ failure ] -> Alcotest.(check bool) "mentions quorum" true (contains failure "no quorum")
  | Error other -> Alcotest.failf "unexpected: %s" (String.concat ";" other)

let test_outcome_exposes_cluster () =
  let t = parse_ok "scheme nac\nsites 3\n@1 write 0 2 peek\n" in
  let outcome = Scenario.run t in
  Alcotest.(check bool) "passed" true outcome.Scenario.passed;
  Alcotest.(check int) "events ran" 1 outcome.Scenario.events_run;
  match Blockrep.Cluster.read_sync outcome.Scenario.cluster ~site:0 ~block:2 with
  | Ok (b, _) ->
      Alcotest.(check string) "state visible afterwards" "peek"
        (String.sub (Blockdev.Block.to_string b) 0 4)
  | Error _ -> Alcotest.fail "post-run read failed"

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

(* `dune runtest` runs with cwd = test/, `dune exec` from the project
   root; look in both places. *)
let corpus_dir =
  if Sys.file_exists "scenarios" && Sys.is_directory "scenarios" then "scenarios"
  else Filename.concat "test" "scenarios"

let corpus_case file =
  Alcotest.test_case file `Quick (fun () ->
      match Scenario.parse_file (Filename.concat corpus_dir file) with
      | Error e -> Alcotest.failf "parse: %s" e
      | Ok t -> (
          let outcome = Scenario.run t in
          match outcome.Scenario.failures with
          | [] -> ()
          | failures -> Alcotest.failf "%s" (String.concat "\n" failures)))

(* Generated scenarios: random well-formed fail/repair/write schedules
   against AC with a trailing consistency expectation must always pass —
   the DSL executor and the protocol together. *)
let prop_generated_schedules_consistent =
  let gen_event =
    QCheck.Gen.(
      map2
        (fun site kind -> (site, kind))
        (int_range 0 2)
        (frequency [ (2, return `Fail); (2, return `Repair); (3, return `Write) ]))
  in
  QCheck.Test.make ~name:"generated fail/repair/write scenarios end consistent" ~count:30
    (QCheck.make QCheck.Gen.(list_size (int_range 1 15) gen_event))
    (fun events ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "scheme ac\nsites 3\nblocks 4\n";
      List.iteri
        (fun i (site, kind) ->
          let t = 10 * (i + 1) in
          match kind with
          | `Fail -> Buffer.add_string buf (Printf.sprintf "@%d fail %d\n" t site)
          | `Repair -> Buffer.add_string buf (Printf.sprintf "@%d repair %d\n" t site)
          | `Write -> Buffer.add_string buf (Printf.sprintf "@%d write %d %d w%d\n" t site (i mod 4) i))
        events;
      let finish = (10 * (List.length events + 1)) + 100 in
      (* Repair everyone, then require convergence. *)
      Buffer.add_string buf (Printf.sprintf "@%d repair 0\n" (finish - 80));
      Buffer.add_string buf (Printf.sprintf "@%d repair 1\n" (finish - 79));
      Buffer.add_string buf (Printf.sprintf "@%d repair 2\n" (finish - 78));
      Buffer.add_string buf (Printf.sprintf "@%d expect-consistent\n" finish);
      Buffer.add_string buf (Printf.sprintf "@%d expect-available true\n" finish);
      match Scenario.parse (Buffer.contents buf) with
      | Error _ -> false
      | Ok t ->
          let outcome = Scenario.run t in
          (* Writes at down sites legitimately fail; the trailing
             consistency and availability expectations must hold. *)
          not
            (List.exists
               (fun f -> contains f "stores disagree" || contains f "availability is")
               outcome.Scenario.failures))

(* [parse] is total on hostile text: it never raises, and every refusal
   has one of the parser's three shapes. *)
let error_shape_ok e =
  let starts prefix = String.starts_with ~prefix e in
  let line_n =
    starts "line "
    &&
    match String.index_from_opt e 5 ':' with
    | Some j -> j > 5 && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub e 5 (j - 5))
    | None -> false
  in
  line_n || starts "bad header:" || starts "missing '"

let corpus_lines =
  lazy
    (Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
    |> List.map (fun f ->
           let ic = open_in (Filename.concat corpus_dir f) in
           let text = really_input_string ic (in_channel_length ic) in
           close_in ic;
           Array.of_list (String.split_on_char '\n' text)))

(* Tokens that sit on the edges of the grammar: numeric bounds and
   non-numbers, separators and keywords in the wrong place. *)
let hostile_numbers =
  [| "0"; "-1"; "1025"; "100000000"; "4611686018427387903"; "-4611686018427387904"; "1e308";
     "-0.0"; "nan"; "inf"; "0x10" |]

let hostile_words =
  [| "true"; "maybe"; "|"; "||"; "@"; "@-1"; "@nan"; "#"; "fail"; "repair"; "write"; "read";
     "partition"; "sites"; "scheme"; "blocks"; "voting"; "dynamic"; "witnesses"; "fault-drop";
     "expect-available"; "\t"; "\r" |]

let is_number w = Option.is_some (float_of_string_opt w)

(* One token-level edit: overwrite a number with a hostile one, overwrite
   any token, drop a token, or insert one. *)
let mutate_line rng line =
  let words = List.filter (( <> ) "") (String.split_on_char ' ' line) in
  let pick pool = pool.(Random.State.int rng (Array.length pool)) in
  let any () = pick (if Random.State.bool rng then hostile_numbers else hostile_words) in
  let some_index p =
    match List.concat (List.mapi (fun i w -> if p w then [ i ] else []) words) with
    | [] -> None
    | is -> Some (List.nth is (Random.State.int rng (List.length is)))
  in
  let edit i f = List.concat (List.mapi (fun j w -> if j = i then f () else [ w ]) words) in
  let words =
    match (Random.State.int rng 4, some_index is_number, some_index (fun _ -> true)) with
    | 0, Some i, _ -> edit i (fun () -> [ pick hostile_numbers ])
    | 1, _, Some i -> edit i (fun () -> [ any () ])
    | 2, _, Some i -> edit i (fun () -> [])
    | _ -> any () :: words
  in
  String.concat " " words

let mutated_corpus_gen =
  QCheck.Gen.(
    map2
      (fun (file, seed) k ->
        let files = Lazy.force corpus_lines in
        let lines = Array.copy (List.nth files (file mod List.length files)) in
        let rng = Random.State.make [| seed |] in
        for _ = 1 to k do
          let i = Random.State.int rng (Array.length lines) in
          lines.(i) <- mutate_line rng lines.(i)
        done;
        String.concat "\n" (Array.to_list lines))
      (pair nat nat) (int_range 1 4))

let prop_parse_total =
  QCheck.Test.make ~name:"parse never raises; errors have one of three shapes" ~count:10000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         frequency
           [ (1, string_size ~gen:printable (int_range 0 200)); (3, mutated_corpus_gen) ]))
    (fun text ->
      match Scenario.parse text with
      | Ok _ -> true
      | Error e -> error_shape_ok e
      | exception exn -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string exn))

let corpus_tests () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scn")
  |> List.sort compare |> List.map corpus_case

let () =
  Alcotest.run "scenario"
    [
      ( "parser",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "scheme required" `Quick test_parse_requires_scheme;
          Alcotest.test_case "sites required" `Quick test_parse_requires_sites;
          Alcotest.test_case "bad command" `Quick test_parse_rejects_bad_command;
          Alcotest.test_case "bad time" `Quick test_parse_rejects_bad_time;
          Alcotest.test_case "comments and blanks" `Quick test_parse_comments_and_blanks;
          Alcotest.test_case "partition groups" `Quick test_parse_partition_groups;
          Alcotest.test_case "witnesses directive" `Quick test_parse_witnesses_directive;
          Alcotest.test_case "fault directives" `Quick test_parse_fault_directives;
          Alcotest.test_case "bad fault probability" `Quick test_parse_rejects_bad_fault_probability;
          Alcotest.test_case "out-of-range ids and arguments" `Quick test_parse_rejects_out_of_range;
          Alcotest.test_case "faulty scenario runs" `Quick test_faulty_scenario_still_passes_expectations;
        ] );
      ( "generated",
        [
          QCheck_alcotest.to_alcotest prop_generated_schedules_consistent;
          QCheck_alcotest.to_alcotest prop_parse_total;
        ] );
      ( "executor",
        [
          Alcotest.test_case "passing expectations" `Quick test_run_passing_expectations;
          Alcotest.test_case "wrong payload detected" `Quick test_run_detects_wrong_payload;
          Alcotest.test_case "wrong state detected" `Quick test_run_detects_wrong_state;
          Alcotest.test_case "multiple failures collected" `Quick test_run_collects_multiple_failures;
          Alcotest.test_case "write failure reported" `Quick test_run_write_failure_reported;
          Alcotest.test_case "media fault actions" `Quick test_run_media_fault_actions;
          Alcotest.test_case "media fault arity checked" `Quick test_parse_media_fault_arity;
          Alcotest.test_case "outcome exposes cluster" `Quick test_outcome_exposes_cluster;
        ] );
      ("corpus", corpus_tests ());
    ]
