(* Tests for Blockdev.Durable_store: checksums, the two-phase intention
   journal, torn-write crash faults, bitrot quarantine discipline,
   journaled metadata, and disk replacement. *)

module Block = Blockdev.Block
module Vv = Blockdev.Version_vector
module Store = Blockdev.Store
module Durable = Blockdev.Durable_store

let block = Block.of_string

(* ------------------------------------------------------------------ *)
(* Fault-free pass-through                                             *)
(* ------------------------------------------------------------------ *)

let test_passthrough () =
  let d = Durable.create ~capacity:8 in
  Alcotest.(check bool) "fresh block verified" true (Durable.checksum_ok d 3);
  Alcotest.(check int) "fresh effective version" 0 (Durable.effective_version d 3);
  Durable.write d 3 (block "hello") ~version:2;
  Alcotest.(check bool) "written block verified" true (Durable.checksum_ok d 3);
  Alcotest.(check int) "effective = stored" 2 (Durable.effective_version d 3);
  (match Durable.read_verified d 3 with
  | Some (b, v) ->
      Alcotest.(check bool) "contents" true (Block.equal b (block "hello"));
      Alcotest.(check int) "version" 2 v
  | None -> Alcotest.fail "verified read refused a clean block");
  (* The underlying store agrees: no faults means bit-identical state. *)
  Alcotest.(check int) "store version" 2 (Store.version (Durable.store d) 3)

let test_version_regression_on_verified () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 0 (block "v2") ~version:2;
  Alcotest.check_raises "regression over a verified block raises"
    (Invalid_argument "Durable_store.write: version regression on block 0 (1 < 2)") (fun () ->
      Durable.write d 0 (block "v1") ~version:1)

(* ------------------------------------------------------------------ *)
(* Bitrot quarantine                                                   *)
(* ------------------------------------------------------------------ *)

let test_bitrot_quarantines () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 1 (block "precious") ~version:3;
  Durable.inject_bitrot d 1;
  Alcotest.(check bool) "checksum fails" false (Durable.checksum_ok d 1);
  Alcotest.(check int) "effective version drops to 0" 0 (Durable.effective_version d 1);
  Alcotest.(check bool) "verified read refuses" true (Durable.read_verified d 1 = None);
  (* Stored version metadata stays trustworthy: decay hits data bytes,
     not the separately journaled version table. *)
  Alcotest.(check int) "stored version intact" 3 (Store.version (Durable.store d) 1);
  Alcotest.(check int) "counted" 1 (Durable.counters d).Durable.bitrot_injected

let test_quarantined_never_transferred () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 0 (block "good") ~version:1;
  Durable.write d 2 (block "bad") ~version:5;
  Durable.inject_bitrot d 2;
  let updates = Durable.verified_blocks_newer_than d (Vv.create 4) in
  Alcotest.(check (list int)) "only the verified block ships" [ 0 ]
    (List.map (fun (k, _, _) -> k) updates)

let test_version_floor () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 0 (block "acked") ~version:4;
  Durable.inject_bitrot d 0;
  (* Below the stored floor: silently refused, still quarantined. *)
  Durable.write d 0 (block "stale") ~version:2;
  Alcotest.(check bool) "still quarantined" false (Durable.checksum_ok d 0);
  Alcotest.(check int) "refusal counted" 1 (Durable.counters d).Durable.refused_installs;
  Alcotest.(check int) "floor intact" 4 (Store.version (Durable.store d) 0);
  (* At the floor: verified data heals the block in place. *)
  Durable.write d 0 (block "current") ~version:4;
  Alcotest.(check bool) "healed" true (Durable.checksum_ok d 0);
  Alcotest.(check int) "repair counted" 1 (Durable.counters d).Durable.repaired_blocks;
  match Durable.read_verified d 0 with
  | Some (b, 4) -> Alcotest.(check bool) "healed contents" true (Block.equal b (block "current"))
  | _ -> Alcotest.fail "healed block unreadable"

let test_apply_updates_repairs_at_floor () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 1 (block "x") ~version:3;
  Durable.inject_bitrot d 1;
  (* A recovery transfer at the exact stored version repairs in place;
     plain Store.apply_updates would drop it as not-strictly-newer. *)
  Durable.apply_updates d [ (1, 3, block "x") ];
  Alcotest.(check bool) "repaired by transfer" true (Durable.checksum_ok d 1);
  Alcotest.(check int) "version kept" 3 (Durable.effective_version d 1);
  (* And a below-floor transfer entry is refused, not installed. *)
  Durable.inject_bitrot d 1;
  Durable.apply_updates d [ (1, 2, block "older") ];
  Alcotest.(check bool) "below-floor transfer refused" false (Durable.checksum_ok d 1)

(* ------------------------------------------------------------------ *)
(* Torn writes and the recovery scrub                                  *)
(* ------------------------------------------------------------------ *)

let test_torn_apply_replayed () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 2 (block "a") ~version:1;
  Durable.write d 2 (block "b") ~version:2;
  Durable.arm_torn_write d;
  Durable.crash d;
  (* The journal committed but the in-place apply tore: garbage bytes
     under an intact version number. *)
  Alcotest.(check bool) "torn block quarantined" false (Durable.checksum_ok d 2);
  Alcotest.(check int) "torn write counted" 1 (Durable.counters d).Durable.torn_writes;
  let report = Durable.scrub d in
  Alcotest.(check int) "scrub replays the intention" 1 report.Durable.replayed;
  Alcotest.(check int) "nothing discarded" 0 report.Durable.discarded;
  match Durable.read_verified d 2 with
  | Some (b, 2) ->
      Alcotest.(check bool) "acknowledged write survives" true (Block.equal b (block "b"))
  | _ -> Alcotest.fail "replayed block unreadable"

let test_torn_journal_discarded () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 0 (block "a") ~version:1;
  Durable.write d 0 (block "b") ~version:2;
  Durable.arm_torn_write ~mode:Durable.Torn_journal d;
  Durable.crash d;
  let report = Durable.scrub d in
  Alcotest.(check int) "scrub discards the half-written record" 1 report.Durable.discarded;
  Alcotest.(check int) "nothing replayed" 0 report.Durable.replayed;
  (* The un-journaled write never happened: pre-image restored, verified. *)
  match Durable.read_verified d 0 with
  | Some (b, 1) -> Alcotest.(check bool) "pre-image restored" true (Block.equal b (block "a"))
  | _ -> Alcotest.fail "pre-image unreadable"

let test_crash_unarmed_is_harmless () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 1 (block "kept") ~version:1;
  Durable.crash d;
  Alcotest.(check bool) "disk intact" true (Durable.checksum_ok d 1);
  let report = Durable.scrub d in
  Alcotest.(check int) "clean scrub: nothing to replay" 0 report.Durable.replayed;
  Alcotest.(check int) "clean scrub: nothing quarantined" 0 report.Durable.quarantined

let test_scrub_counts_quarantined () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 0 (block "x") ~version:1;
  Durable.write d 3 (block "y") ~version:1;
  (* A later clean write: the journal's single slot holds block 1, so the
     rot below is genuine decay, not a torn apply the journal could replay. *)
  Durable.write d 1 (block "z") ~version:1;
  Durable.inject_bitrot d 0;
  Durable.inject_bitrot d 3;
  let report = Durable.scrub d in
  Alcotest.(check int) "both rotten blocks counted" 2 report.Durable.quarantined;
  Alcotest.(check bool) "last_scrub kept" true (Durable.last_scrub d = Some report)

(* ------------------------------------------------------------------ *)
(* Journaled metadata                                                  *)
(* ------------------------------------------------------------------ *)

(* [None] is an absent record, which the protocols read as every site. *)
let records = Alcotest.(option (list int))

let slot =
  Alcotest.testable
    (fun ppf -> function
      | Durable.W -> Format.pp_print_string ppf "W"
      | Durable.Group b -> Format.fprintf ppf "Group %d" b)
    ( = )

let test_meta_roundtrip () =
  let d = Durable.create ~capacity:2 in
  Alcotest.check records "fresh W absent" None (Durable.w d);
  Alcotest.check records "fresh group absent" None (Durable.group d 1);
  Durable.set_w d [ 1 ];
  Alcotest.check records "update sticks" (Some [ 1 ]) (Durable.w d);
  Durable.set_group d 1 [ 0; 2 ];
  Alcotest.check records "group sticks" (Some [ 0; 2 ]) (Durable.group d 1);
  Alcotest.check records "other block untouched" None (Durable.group d 0);
  Alcotest.check records "W untouched by a group write" (Some [ 1 ]) (Durable.w d)

let test_torn_meta_reset_to_default () =
  let d = Durable.create ~capacity:2 in
  Durable.set_w d [ 1 ];
  Durable.set_group d 0 [ 0; 1 ];
  Durable.set_group d 1 [ 2 ];
  Durable.arm_torn_write d;
  Durable.crash d;
  let report = Durable.scrub d in
  Alcotest.(check (option slot)) "torn record reported" (Some (Durable.Group 1))
    report.Durable.meta_reset;
  Alcotest.check records "reset to absent: every site" None (Durable.group d 1);
  Alcotest.check records "earlier group kept" (Some [ 0; 1 ]) (Durable.group d 0);
  Alcotest.check records "W kept" (Some [ 1 ]) (Durable.w d);
  Durable.set_w d [ 0 ];
  Durable.arm_torn_write d;
  Durable.crash d;
  let report = Durable.scrub d in
  Alcotest.(check (option slot)) "torn W reported" (Some Durable.W) report.Durable.meta_reset;
  Alcotest.check records "W reset to absent" None (Durable.w d);
  Alcotest.(check int) "counted" 2 (Durable.counters d).Durable.scrub_meta_reset

let test_torn_meta_journal_restores_previous () =
  let d = Durable.create ~capacity:2 in
  Durable.set_group d 1 [ 1; 2 ];
  Durable.set_group d 1 [ 3 ];
  Durable.arm_torn_write ~mode:Durable.Torn_journal d;
  Durable.crash d;
  (* The append tore: the write never became durable, previous value back. *)
  Alcotest.check records "previous value" (Some [ 1; 2 ]) (Durable.group d 1);
  let report = Durable.scrub d in
  Alcotest.(check int) "discarded" 1 report.Durable.discarded;
  Alcotest.(check (option slot)) "nothing reset" None report.Durable.meta_reset;
  (* A torn first write restores absence. *)
  Durable.set_w d [ 4 ];
  Durable.arm_torn_write ~mode:Durable.Torn_journal d;
  Durable.crash d;
  Alcotest.check records "first W write undone" None (Durable.w d)

(* ------------------------------------------------------------------ *)
(* Disk replacement and re-blessing                                    *)
(* ------------------------------------------------------------------ *)

let test_replace_disk () =
  let d = Durable.create ~capacity:4 in
  Durable.set_w d [ 0 ];
  Durable.set_group d 3 [ 0; 1 ];
  Durable.write d 2 (block "doomed") ~version:7;
  Durable.inject_bitrot d 2;
  Durable.replace_disk d;
  Alcotest.(check bool) "blank block verified" true (Durable.checksum_ok d 2);
  Alcotest.(check int) "version reset" 0 (Durable.effective_version d 2);
  Alcotest.(check bool) "contents zeroed" true
    (Block.equal (Store.read (Durable.store d) 2) Block.zero);
  Alcotest.check records "W back to absent" None (Durable.w d);
  Alcotest.check records "group back to absent" None (Durable.group d 3);
  Alcotest.(check int) "counted" 1 (Durable.counters d).Durable.disk_replacements

let test_counter_accumulation () =
  let a = Durable.zero_counters () in
  let d = Durable.create ~capacity:2 in
  Durable.write d 0 (block "x") ~version:1;
  Durable.inject_bitrot d 0;
  Durable.write d 0 (block "x") ~version:1;
  Durable.accumulate_counters a (Durable.counters d);
  Durable.accumulate_counters a (Durable.counters d);
  Alcotest.(check int) "bitrot summed" 2 a.Durable.bitrot_injected;
  Alcotest.(check int) "repairs summed" 2 a.Durable.repaired_blocks

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Bitrot is always detected: whatever (contents, version) pair is on the
   platter, scrambling the data bytes breaks the checksum. *)
let prop_bitrot_always_detected =
  QCheck.Test.make ~name:"inject_bitrot always breaks the checksum" ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 64)) (int_range 1 50))
    (fun (s, v) ->
      let d = Durable.create ~capacity:4 in
      Durable.write d 1 (block s) ~version:v;
      Durable.inject_bitrot d 1;
      (not (Durable.checksum_ok d 1)) && Store.version (Durable.store d) 1 = v)

(* Crash-atomicity: whichever way the crash tears, after the scrub the
   block is verified and holds either the old or the new write — never a
   mix, never garbage. *)
let prop_scrub_restores_old_or_new =
  QCheck.Test.make ~name:"scrub leaves either pre- or post-image, verified" ~count:200
    QCheck.(pair bool (pair small_printable_string small_printable_string))
    (fun (torn_journal, (old_s, new_s)) ->
      let d = Durable.create ~capacity:2 in
      Durable.write d 0 (block old_s) ~version:1;
      Durable.write d 0 (block new_s) ~version:2;
      Durable.arm_torn_write
        ~mode:(if torn_journal then Durable.Torn_journal else Durable.Torn_apply)
        d;
      Durable.crash d;
      ignore (Durable.scrub d : Durable.scrub_report);
      match Durable.read_verified d 0 with
      | Some (b, 1) -> Block.equal b (block old_s)
      | Some (b, 2) -> Block.equal b (block new_s)
      | _ -> false)

(* Metadata records against a reference model: an assoc list of the
   records present, plus what the journal's single slot holds (which is
   all a crash can tear) and the record a torn apply left for the scrub. *)
type op =
  | Set_w of int list
  | Set_group of int * int list
  | Write of int
  | Crash of Durable.tear option
  | Scrub
  | Replace

type journal = Empty | Meta_rec of Durable.slot * int list option | Data_rec | Unreadable

let model_blocks = 4

let op_gen =
  let open QCheck.Gen in
  let ids = list_size (int_range 0 3) (int_range 0 6) in
  frequency
    [
      (3, map (fun l -> Set_w l) ids);
      (4, map2 (fun b l -> Set_group (b, l)) (int_range 0 (model_blocks - 1)) ids);
      (2, map (fun b -> Write b) (int_range 0 (model_blocks - 1)));
      ( 3,
        map (fun m -> Crash m)
          (oneofl [ None; Some Durable.Torn_apply; Some Durable.Torn_journal ]) );
      (2, return Scrub);
      (1, return Replace);
    ]

let show_op = function
  | Set_w l -> Printf.sprintf "set_w [%s]" (String.concat ";" (List.map string_of_int l))
  | Set_group (b, l) ->
      Printf.sprintf "set_group %d [%s]" b (String.concat ";" (List.map string_of_int l))
  | Write b -> Printf.sprintf "write %d" b
  | Crash None -> "crash"
  | Crash (Some Durable.Torn_apply) -> "crash torn-apply"
  | Crash (Some Durable.Torn_journal) -> "crash torn-journal"
  | Scrub -> "scrub"
  | Replace -> "replace_disk"

let prop_meta_model =
  QCheck.Test.make ~name:"metadata records follow an assoc-list model" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 40) op_gen))
    (fun ops ->
      let d = Durable.create ~capacity:model_blocks in
      let recs = ref [] and journal = ref Empty and torn = ref None and version = ref 0 in
      let set slot = function
        | Some v -> recs := (slot, v) :: List.remove_assoc slot !recs
        | None -> recs := List.remove_assoc slot !recs
      in
      let agrees () =
        Durable.w d = List.assoc_opt Durable.W !recs
        && List.for_all
             (fun b -> Durable.group d b = List.assoc_opt (Durable.Group b) !recs)
             (List.init model_blocks Fun.id)
      in
      List.for_all
        (fun op ->
          let report_ok =
            match op with
            | Set_w v ->
                journal := Meta_rec (Durable.W, List.assoc_opt Durable.W !recs);
                set Durable.W (Some v);
                Durable.set_w d v;
                true
            | Set_group (b, v) ->
                journal := Meta_rec (Durable.Group b, List.assoc_opt (Durable.Group b) !recs);
                set (Durable.Group b) (Some v);
                Durable.set_group d b v;
                true
            | Write b ->
                incr version;
                journal := Data_rec;
                Durable.write d b (block (string_of_int !version)) ~version:!version;
                true
            | Crash mode ->
                (match (mode, !journal) with
                | Some Durable.Torn_apply, Meta_rec (slot, _) -> torn := Some slot
                | Some Durable.Torn_journal, Meta_rec (slot, prev) ->
                    set slot prev;
                    journal := Unreadable
                | Some Durable.Torn_journal, Data_rec -> journal := Unreadable
                | _ -> ());
                Option.iter (fun mode -> Durable.arm_torn_write ~mode d) mode;
                Durable.crash d;
                true
            | Scrub ->
                let want = !torn in
                Option.iter (fun slot -> set slot None) want;
                torn := None;
                journal := Empty;
                (Durable.scrub d).Durable.meta_reset = want
            | Replace ->
                recs := [];
                torn := None;
                journal := Empty;
                Durable.replace_disk d;
                true
          in
          report_ok && agrees ())
        ops)

let () =
  Alcotest.run "durable"
    [
      ( "pass-through",
        [
          Alcotest.test_case "checked read/write" `Quick test_passthrough;
          Alcotest.test_case "version regression" `Quick test_version_regression_on_verified;
        ] );
      ( "bitrot",
        [
          Alcotest.test_case "quarantine" `Quick test_bitrot_quarantines;
          Alcotest.test_case "never transferred" `Quick test_quarantined_never_transferred;
          Alcotest.test_case "version floor" `Quick test_version_floor;
          Alcotest.test_case "transfer repairs at floor" `Quick test_apply_updates_repairs_at_floor;
          QCheck_alcotest.to_alcotest prop_bitrot_always_detected;
        ] );
      ( "torn-writes",
        [
          Alcotest.test_case "torn apply replayed" `Quick test_torn_apply_replayed;
          Alcotest.test_case "torn journal discarded" `Quick test_torn_journal_discarded;
          Alcotest.test_case "unarmed crash harmless" `Quick test_crash_unarmed_is_harmless;
          Alcotest.test_case "scrub counts quarantined" `Quick test_scrub_counts_quarantined;
          QCheck_alcotest.to_alcotest prop_scrub_restores_old_or_new;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "roundtrip" `Quick test_meta_roundtrip;
          Alcotest.test_case "torn apply resets to default" `Quick test_torn_meta_reset_to_default;
          Alcotest.test_case "torn journal restores previous" `Quick
            test_torn_meta_journal_restores_previous;
          QCheck_alcotest.to_alcotest prop_meta_model;
        ] );
      ( "replacement",
        [
          Alcotest.test_case "replace disk" `Quick test_replace_disk;
          Alcotest.test_case "counter accumulation" `Quick test_counter_accumulation;
        ] );
    ]
