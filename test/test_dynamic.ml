(* Tests for dynamic voting (the reference [10] extension): majorities of
   the last update group, per block. *)

module Cluster = Blockrep.Cluster
module Types = Blockrep.Types
module Block = Blockdev.Block

let make ?(n = 5) ?(blocks = 4) ?(seed = 1818) () =
  Cluster.create (Blockrep.Config.make_exn ~scheme:Types.Dynamic_voting ~n_sites:n ~n_blocks:blocks ~seed ())

let payload s = Block.of_string s

let write_ok c ~site ~block data =
  match Cluster.write_sync c ~site ~block (payload data) with
  | Ok v -> v
  | Error e -> Alcotest.failf "write failed: %s" (Types.failure_reason_to_string e)

let read_ok c ~site ~block =
  match Cluster.read_sync c ~site ~block with
  | Ok (b, v) -> (Block.to_string b, v)
  | Error e -> Alcotest.failf "read failed: %s" (Types.failure_reason_to_string e)

(* Block 0's group cardinality as [site]'s disk records it; an absent
   record (fresh, scrubbed or replaced disk) counts as the full site set. *)
let group_of c site = Blockrep.Dynamic_voting.group_of (Cluster.runtime c) site 0

let settle c = Cluster.run_until c (Sim.Engine.now (Cluster.engine c) +. 30.0)

let test_roundtrip () =
  let c = make () in
  Alcotest.(check int) "v1" 1 (write_ok c ~site:0 ~block:0 "dyn");
  let data, v = read_ok c ~site:3 ~block:0 in
  Alcotest.(check int) "version" 1 v;
  Alcotest.(check string) "data" "dyn" (String.sub data 0 3)

let test_survives_sequential_failures () =
  (* The headline: with writes interleaved, service survives down to a
     pair — static majority voting dies at ⌈(n+1)/2⌉-1 failures. *)
  let c = make () in
  ignore (write_ok c ~site:0 ~block:0 "g5");
  settle c;
  Cluster.fail_site c 4;
  ignore (write_ok c ~site:0 ~block:0 "g4");
  settle c;
  Cluster.fail_site c 3;
  ignore (write_ok c ~site:0 ~block:0 "g3");
  settle c;
  Cluster.fail_site c 2;
  (* 2 of 5 up: static voting refuses here; the group has shrunk to
     {0,1,2} and 2 of 3 are up, so dynamic still serves. *)
  let v = write_ok c ~site:0 ~block:0 "g2" in
  Alcotest.(check int) "still writing at 2/5" 4 v;
  settle c;
  let _, rv = read_ok c ~site:1 ~block:0 in
  Alcotest.(check int) "still reading at 2/5" 4 rv

let test_pair_is_the_floor () =
  (* A group of two needs both members: strict majorities cannot shrink
     to one. *)
  let c = make () in
  ignore (write_ok c ~site:0 ~block:0 "init");
  settle c;
  List.iter
    (fun i ->
      Cluster.fail_site c i;
      ignore (Cluster.write_sync c ~site:0 ~block:0 (payload (Printf.sprintf "shrink%d" i)));
      settle c)
    [ 4; 3; 2 ];
  (* Group is now {0,1}.  Losing 1 must stop service. *)
  Cluster.fail_site c 1;
  (match Cluster.write_sync c ~site:0 ~block:0 (payload "alone") with
  | Error Types.No_quorum -> ()
  | Ok v -> Alcotest.failf "lone site wrote v%d" v
  | Error e -> Alcotest.failf "wrong refusal: %s" (Types.failure_reason_to_string e));
  match Cluster.read_sync c ~site:0 ~block:0 with
  | Error Types.No_quorum -> ()
  | Ok _ -> Alcotest.fail "lone site served a read"
  | Error e -> Alcotest.failf "wrong refusal: %s" (Types.failure_reason_to_string e)

let test_pair_member_serves_alone_cannot () =
  (* After shrinking to {0,1}, repairing other sites does not help until a
     write adopts them. *)
  let c = make () in
  ignore (write_ok c ~site:0 ~block:0 "base");
  settle c;
  List.iter
    (fun i ->
      Cluster.fail_site c i;
      ignore (Cluster.write_sync c ~site:0 ~block:0 (payload "x"));
      settle c)
    [ 4; 3; 2 ];
  Cluster.fail_site c 0;
  Cluster.repair_site c 2;
  Cluster.repair_site c 3;
  Cluster.repair_site c 4;
  settle c;
  (* 4 of 5 sites up, but the pair {0,1} is the quorum base and 0 is down:
     site 1 alone does not make a majority of 2... *)
  (match Cluster.read_sync c ~site:1 ~block:0 with
  | Error Types.No_quorum -> ()
  | Ok _ -> Alcotest.fail "served without a group majority"
  | Error e -> Alcotest.failf "wrong refusal: %s" (Types.failure_reason_to_string e));
  (* ...until 0 returns; then a write re-adopts everyone. *)
  Cluster.repair_site c 0;
  settle c;
  ignore (write_ok c ~site:1 ~block:0 "regrown");
  settle c;
  Cluster.fail_site c 0;
  Cluster.fail_site c 1;
  (* With the group regrown to all five, {2,3,4} now suffices. *)
  let data, _ = read_ok c ~site:2 ~block:0 in
  Alcotest.(check string) "regrown group serves" "regrown" (String.sub data 0 7)

let test_no_lost_writes_on_recovery () =
  let c = make () in
  ignore (write_ok c ~site:0 ~block:1 "first");
  settle c;
  Cluster.fail_site c 4;
  Cluster.fail_site c 3;
  ignore (write_ok c ~site:0 ~block:1 "second");
  settle c;
  Cluster.repair_site c 3;
  Cluster.repair_site c 4;
  settle c;
  (* Stale sites serve only after catching up via the vote/pull path. *)
  let data, v = read_ok c ~site:4 ~block:1 in
  Alcotest.(check int) "latest version" 2 v;
  Alcotest.(check string) "latest data" "second" (String.sub data 0 6);
  ignore (write_ok c ~site:4 ~block:1 "third");
  settle c;
  Alcotest.(check bool) "consistent" true (Cluster.consistent_available_stores c)

let test_partition_minority_refused () =
  let c = make () in
  ignore (write_ok c ~site:0 ~block:0 "pre");
  settle c;
  Cluster.partition c [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  (match Cluster.write_sync c ~site:0 ~block:0 (payload "minority") with
  | Error Types.No_quorum -> ()
  | Ok _ -> Alcotest.fail "minority accepted"
  | Error e -> Alcotest.failf "wrong refusal: %s" (Types.failure_reason_to_string e));
  (match Cluster.write_sync c ~site:2 ~block:0 (payload "majority") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "majority refused: %s" (Types.failure_reason_to_string e));
  settle c;
  Cluster.heal c;
  settle c;
  let data, _ = read_ok c ~site:0 ~block:0 in
  Alcotest.(check string) "one history" "majority" (String.sub data 0 8)

let test_shrunk_partition_keeps_exclusivity () =
  (* The majority side shrinks its group to {2,3,4}; after healing, the
     old members cannot form quorums against the shrunk group. *)
  let c = make () in
  ignore (write_ok c ~site:0 ~block:0 "pre");
  settle c;
  Cluster.partition c [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  ignore (write_ok c ~site:2 ~block:0 "shrunk");
  settle c;
  (* Simulate the worst: the whole old majority side goes down post-heal. *)
  Cluster.heal c;
  settle c;
  Cluster.fail_site c 2;
  Cluster.fail_site c 3;
  (* 0, 1, 4 are up: 4 holds the shrunk-group write; group {2,3,4} has
     only one member up -> refuse (0 and 1 are not members). *)
  match Cluster.read_sync c ~site:0 ~block:0 with
  | Error Types.No_quorum -> ()
  | Ok (_, v) -> Alcotest.failf "served v%d without group majority" v
  | Error e -> Alcotest.failf "wrong refusal: %s" (Types.failure_reason_to_string e)

let test_per_block_groups_independent () =
  let c = make ~blocks:2 () in
  ignore (write_ok c ~site:0 ~block:0 "b0");
  settle c;
  Cluster.fail_site c 3;
  Cluster.fail_site c 4;
  (* Shrink only block 0's group. *)
  ignore (write_ok c ~site:0 ~block:0 "b0-shrunk");
  settle c;
  Cluster.repair_site c 3;
  Cluster.repair_site c 4;
  settle c;
  Cluster.fail_site c 0;
  Cluster.fail_site c 1;
  (* Block 1's group is still all five: {2,3,4} serves it. *)
  let _, v1 = read_ok c ~site:2 ~block:1 in
  Alcotest.(check int) "block 1 at v0" 0 v1;
  (* Block 0's group is {0,1,2}: only 2 is up -> refused. *)
  match Cluster.read_sync c ~site:2 ~block:0 with
  | Error Types.No_quorum -> ()
  | Ok _ -> Alcotest.fail "block 0 served without its group"
  | Error e -> Alcotest.failf "wrong refusal: %s" (Types.failure_reason_to_string e)

let test_group_accessor () =
  let c = make () in
  ignore (write_ok c ~site:0 ~block:0 "g");
  settle c;
  Cluster.fail_site c 4;
  ignore (write_ok c ~site:0 ~block:0 "g2");
  settle c;
  Alcotest.(check int) "coordinator records a group of 4" 4 (group_of c 0);
  Alcotest.(check int) "writer at v2" 2 (Blockdev.Version_vector.get (Cluster.site_versions c 0) 0);
  Alcotest.(check int) "down site missed it" 1
    (Blockdev.Version_vector.get (Cluster.site_versions c 4) 0)

let check_available c label want =
  Alcotest.(check bool) label want (Cluster.system_available c)

let test_predicate_over_failures_and_bitrot () =
  (* Pins the availability predicate step by step.  Once every holder of
     the top version is quarantined, the older version's record (the full
     group) decides, and the answer flips. *)
  let c = make ~blocks:1 () in
  check_available c "fresh" true;
  ignore (write_ok c ~site:0 ~block:0 "v1");
  settle c;
  Cluster.fail_site c 3;
  Cluster.fail_site c 4;
  check_available c "3 of 5 up" true;
  ignore (write_ok c ~site:0 ~block:0 "v2");
  settle c;
  Cluster.fail_site c 2;
  check_available c "2 of group {0,1,2} up" true;
  Cluster.fail_site c 1;
  check_available c "1 of group {0,1,2} up" false;
  Cluster.repair_site c 3;
  Cluster.repair_site c 4;
  settle c;
  Alcotest.(check (list int)) "repaired sites stay stale" [ 1; 1 ]
    (List.map (fun site -> Cluster.effective_version c ~site ~block:0) [ 3; 4 ]);
  check_available c "0, 3, 4 up but only 0 is in the top group" false;
  List.iter (fun site -> Cluster.inject_bitrot c ~site ~block:0) [ 0; 1; 2 ];
  Alcotest.(check int) "top copies quarantined" 0 (Cluster.effective_version c ~site:0 ~block:0);
  check_available c "v1's full group decides: 3 of 5 up" true

let test_predicate_last_block_decides () =
  (* Blocks 0 and 1 shrink their groups to {0,1,2}; block 2 keeps the
     full group, so it alone makes the device unavailable. *)
  let c = make ~blocks:3 () in
  Cluster.fail_site c 3;
  Cluster.fail_site c 4;
  ignore (write_ok c ~site:0 ~block:0 "b0");
  ignore (write_ok c ~site:0 ~block:1 "b1");
  settle c;
  check_available c "3 of 5 up" true;
  Cluster.fail_site c 2;
  check_available c "block 2 has 2 of 5" false;
  List.iter (fun block -> ignore (read_ok c ~site:0 ~block)) [ 0; 1 ];
  (match Cluster.read_sync c ~site:0 ~block:2 with
  | Error Types.No_quorum -> ()
  | Ok _ -> Alcotest.fail "block 2 served without its group"
  | Error e -> Alcotest.failf "wrong refusal: %s" (Types.failure_reason_to_string e));
  Cluster.repair_site c 2;
  settle c;
  check_available c "3 of 5 up again" true

let test_replaced_member_reads_full_group () =
  let c = make ~blocks:2 () in
  check_available c "fresh" true;
  ignore (write_ok c ~site:0 ~block:0 "v1");
  settle c;
  Cluster.fail_site c 4;
  check_available c "4 of 5 up" true;
  ignore (write_ok c ~site:0 ~block:0 "v2");
  settle c;
  Alcotest.(check (list int)) "write with site 4 down records a group of 4" [ 4; 4; 4; 4 ]
    (List.map (fun site -> group_of c site) [ 0; 1; 2; 3 ]);
  Alcotest.(check int) "the down site keeps the old group" 5 (group_of c 4);
  Cluster.replace_disk c 1;
  check_available c "3 of group {0,1,2,3} up" true;
  Cluster.repair_site c 1;
  Alcotest.(check int) "blank disk: full group" 5 (group_of c 1);
  Alcotest.(check int) "blank disk: version 0" 0 (Cluster.effective_version c ~site:1 ~block:0);
  check_available c "member back" true;
  Cluster.fail_site c 0;
  check_available c "3 of group {0,1,2,3} up" true;
  Cluster.fail_site c 2;
  check_available c "2 of group {0,1,2,3} up" false;
  Cluster.repair_site c 0;
  Cluster.repair_site c 2;
  settle c;
  ignore (write_ok c ~site:1 ~block:0 "v3");
  settle c;
  Alcotest.(check int) "a write re-adopts the replaced member" 4 (group_of c 1);
  Alcotest.(check int) "other blocks untouched" 5
    (Blockrep.Dynamic_voting.group_of (Cluster.runtime c) 1 1);
  check_available c "end" true

let test_torn_group_record_resets () =
  let c = make () in
  ignore (write_ok c ~site:0 ~block:0 "v1");
  settle c;
  Cluster.fail_site c 4;
  ignore (write_ok c ~site:0 ~block:0 "v2");
  settle c;
  Alcotest.(check int) "group of 4 recorded" 4 (group_of c 1);
  (* Site 1's last journal entry is the group record that followed the
     block write: the torn apply hits the record, not the block. *)
  Cluster.arm_torn_write c 1;
  Cluster.fail_site c 1;
  check_available c "3 of group {0,1,2,3} up" true;
  Cluster.repair_site c 1;
  Alcotest.(check int) "scrub reset one record" 1
    (Cluster.storage_counters c).Blockdev.Durable_store.scrub_meta_reset;
  Alcotest.(check int) "torn record reads as the full group" 5 (group_of c 1);
  Alcotest.(check int) "the block write survived" 2 (Cluster.effective_version c ~site:1 ~block:0);
  Alcotest.(check int) "the coordinator keeps its record" 4 (group_of c 0);
  check_available c "after repair" true;
  let _, v = read_ok c ~site:1 ~block:0 in
  Alcotest.(check int) "reads still see v2" 2 v

let test_oracle_under_churn () =
  (* The cross-scheme oracle: successful reads always return the latest
     successfully written value, under random fail/repair churn. *)
  let c = make ~n:4 ~blocks:4 ~seed:31 () in
  let rng = Util.Prng.create 37 in
  let latest = Array.make 4 None in
  let up = Array.make 4 true in
  let violations = ref 0 in
  for step = 1 to 400 do
    let roll = Util.Prng.int rng 20 in
    if roll < 3 then begin
      let s = Util.Prng.int rng 4 in
      if up.(s) then Cluster.fail_site c s else Cluster.repair_site c s;
      up.(s) <- not up.(s)
    end
    else begin
      let block = Util.Prng.int rng 4 in
      let site = Util.Prng.int rng 4 in
      if roll < 11 then begin
        let tag = Printf.sprintf "s%d" step in
        match Cluster.write_sync c ~site ~block (payload tag) with
        | Ok _ ->
            latest.(block) <- Some tag;
            settle c
        | Error _ -> ()
      end
      else
        match (Cluster.read_sync c ~site ~block, latest.(block)) with
        | Ok (b, _), Some want ->
            if String.sub (Block.to_string b) 0 (String.length want) <> want then incr violations
        | Ok _, None | Error _, _ -> ()
    end
  done;
  Alcotest.(check int) "no stale reads" 0 !violations

let () =
  Alcotest.run "dynamic-voting"
    [
      ( "service",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "survives sequential failures" `Quick test_survives_sequential_failures;
          Alcotest.test_case "pair floor" `Quick test_pair_is_the_floor;
          Alcotest.test_case "regrowth after repair" `Quick test_pair_member_serves_alone_cannot;
          Alcotest.test_case "per-block groups" `Quick test_per_block_groups_independent;
          Alcotest.test_case "version visibility" `Quick test_group_accessor;
          Alcotest.test_case "predicate over failures and bitrot" `Quick
            test_predicate_over_failures_and_bitrot;
          Alcotest.test_case "predicate: last block decides" `Quick test_predicate_last_block_decides;
          Alcotest.test_case "replaced member reads the full group" `Quick
            test_replaced_member_reads_full_group;
          Alcotest.test_case "torn group record resets" `Quick test_torn_group_record_resets;
        ] );
      ( "safety",
        [
          Alcotest.test_case "no lost writes" `Quick test_no_lost_writes_on_recovery;
          Alcotest.test_case "minority partition refused" `Quick test_partition_minority_refused;
          Alcotest.test_case "shrunk group exclusivity" `Quick test_shrunk_partition_keeps_exclusivity;
          Alcotest.test_case "oracle under churn" `Slow test_oracle_under_churn;
        ] );
    ]
