type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better; bound : float option }

let command = [ "python3"; "perfbench/run.py" ]
let paths = [ "perfbench" ]
let run_seconds = 25

let workloads =
  [
    ( "steady",
      "Bare per-op protocol path (stub, cluster, rounds, transport, engine, journal) of MCV, AC, NAC \
       and DV; codec, recovery, monitor, lanes and queues stay idle." );
    ( "wire",
      "The steady ops over encoded frames with 1% ambient corruption: puts the wire codec, CRC and \
       hardened ingress on the hot path." );
    ( "churn",
      "128 groups over 65536 blocks with Poisson site failures on parallel lanes: exercises set-up, \
       recovery, stub failover, the availability monitor and multicore scaling." );
    ( "brownout",
      "Open-loop Poisson arrivals at 2x one-site saturation on AC with a 10x-slow site: exercises \
       server queues, deadlines, hedges, breakers and admission." );
  ]

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "run_s" "s" Lower 0.25;
    e2e "cpu_s" "s" Lower 0.25;
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "op_wall_p50_us" "us" Lower 0.25;
    e2e "op_wall_p99_us" "us" Lower 0.25;
    e2e "virt_p50" "vt" Lower 0.1;
    e2e "virt_p99" "vt" Lower 0.15;
    e2e "goodput" "1/vt" Higher 0.15;
    e2e "ok_frac" "ratio" Higher 0.05;
    e2e "msgs_per_op" "msgs/op" Lower 0.15;
    e2e "bytes_per_op" "B/op" Lower 0.25;
    e2e "availability" "ratio" Higher 0.05;
    e2e "peak_heap_mb" "MB" Lower 0.25;
  ]

let schemes = [ "mcv"; "ac"; "nac"; "dv" ]
let layer name unit_ better = { name; unit_; better; bound = None }

let per_layer =
  [
    layer "engine.events_per_op" "count" Lower;
    layer "engine.queue_peak" "count" Lower;
    layer "protocol.rounds_per_op" "count" Lower;
  ]
  @ List.map (fun op -> layer ("net.msgs_per_op." ^ op) "msgs/op" Lower) [ "read"; "write"; "recovery"; "repair" ]
  @ [
      layer "stub.attempts_per_op" "count" Lower;
      layer "stub.failovers" "count" Lower;
      layer "stub.retries" "count" Lower;
      layer "codec.encode_ns" "ns" Lower;
      layer "codec.decode_ns" "ns" Lower;
      layer "codec.crc_ns_per_kb" "ns" Lower;
      layer "codec.share" "ratio" Lower;
      layer "ingress.frames_rejected" "count" Lower;
      layer "ingress.retransmitted" "count" Lower;
      layer "ingress.quarantine_trips" "count" Lower;
      layer "ingress.useful_ratio" "ratio" Higher;
      layer "store.journal_commits_per_write" "count" Lower;
      layer "store.write_ns" "ns" Lower;
      layer "store.read_verified_ns" "ns" Lower;
      layer "store.checksum_ok_ns" "ns" Lower;
      layer "store.bytes_resident" "B" Lower;
      layer "store.share_ub" "ratio" Lower;
    ]
  @ List.map (fun s -> layer ("monitor.state_changes." ^ s) "count" Lower) schemes
  @ List.map (fun s -> layer ("monitor.predicate_us." ^ s) "us" Lower) schemes
  @ [ layer "monitor.share_lb" "ratio" Lower ]
  @ List.map (fun s -> layer ("setup.create_s." ^ s) "s" Lower) schemes
  @ [
      layer "setup.us_per_block" "us" Lower;
      layer "lanes.count" "count" Higher;
      layer "lanes.busy_s" "s" Lower;
      layer "lanes.imbalance" "ratio" Lower;
      layer "lanes.parallel_eff" "ratio" Higher;
      layer "server.sojourn_mean" "vt" Lower;
      layer "server.depth_mean" "count" Lower;
      layer "server.depth_p99" "count" Lower;
      layer "server.shed" "count" Lower;
      layer "robust.hedged" "count" Lower;
      layer "robust.hedge_win_ratio" "ratio" Higher;
      layer "robust.breaker_trips" "count" Lower;
      layer "robust.admission_shed" "count" Lower;
      layer "gc.minor_words_per_op" "words" Lower;
      layer "gc.major_collections" "count" Lower;
      layer "oracle.check_s" "s" Lower;
      layer "trace.overhead" "ratio" Lower;
    ]
  @ List.map
      (fun l -> layer ("trace.self_s." ^ l) "s" Lower)
      [ "device"; "op"; "engine"; "monitor"; "lane"; "oracle"; "codec"; "crc"; "store" ]

(* Which layer metrics should move which end-to-end metrics, on which
   workloads.  [moves = []] marks a prediction of no change. *)
type link = { layers : string list; moves : string list; on : string list; note : string }

let link layers moves on note = { layers; moves; on; note }

let layer_map =
  [
    link [ "engine.events_per_op"; "engine.queue_peak" ] [ "ops_per_s" ] [ "brownout"; "steady" ] "";
    link
      [ "protocol.rounds_per_op"; "net.msgs_per_op.read"; "net.msgs_per_op.write"; "net.msgs_per_op.recovery"; "net.msgs_per_op.repair" ]
      [ "msgs_per_op"; "virt_p50" ] [ "steady" ] "";
    link [ "stub.attempts_per_op"; "stub.failovers"; "stub.retries" ] [ "ok_frac"; "virt_p99" ] [ "churn" ] "";
    link
      [ "codec.encode_ns"; "codec.decode_ns"; "codec.crc_ns_per_kb"; "codec.share" ]
      [ "ops_per_s"; "op_wall_p50_us" ] [ "wire" ] "";
    link [ "codec.encode_ns"; "codec.decode_ns"; "codec.crc_ns_per_kb" ] [] [ "steady" ]
      "codec is off the in-heap path: no change expected";
    link
      [ "ingress.frames_rejected"; "ingress.retransmitted"; "ingress.quarantine_trips"; "ingress.useful_ratio" ]
      [ "ok_frac"; "virt_p99" ] [ "wire" ] "";
    link
      [ "store.journal_commits_per_write"; "store.write_ns"; "store.read_verified_ns"; "store.checksum_ok_ns"; "store.share_ub" ]
      [ "ops_per_s" ] [ "steady" ] "";
    link [ "store.bytes_resident" ] [ "peak_heap_mb" ] [ "churn" ] "";
    link
      (List.map (fun s -> "monitor.state_changes." ^ s) schemes
      @ List.map (fun s -> "monitor.predicate_us." ^ s) schemes
      @ [ "monitor.share_lb" ])
      [ "op_wall_p99_us"; "ops_per_s" ] [ "churn" ] "";
    link
      (List.map (fun s -> "setup.create_s." ^ s) schemes @ [ "setup.us_per_block" ])
      [ "setup_s" ] [ "churn"; "steady" ] "";
    link [ "lanes.busy_s"; "lanes.imbalance"; "lanes.parallel_eff" ] [ "run_s" ] [ "churn" ] "";
    link [ "server.sojourn_mean"; "server.depth_mean"; "server.depth_p99"; "server.shed" ] [ "virt_p99"; "goodput" ] [ "brownout" ] "";
    link
      [ "robust.hedged"; "robust.hedge_win_ratio"; "robust.breaker_trips"; "robust.admission_shed" ]
      [ "goodput"; "ok_frac" ] [ "brownout" ] "";
    link [ "gc.minor_words_per_op"; "gc.major_collections" ] [ "ops_per_s" ] (List.map fst workloads) "";
  ]

let better_string = function Lower -> "lower" | Higher -> "higher"

let benchmark_json () =
  let metric m =
    Json.Obj
      ([ ("name", Json.Str m.name); ("unit", Json.Str m.unit_); ("better", Json.Str (better_string m.better)) ]
      @ match m.bound with Some b -> [ ("bound", Json.Num b) ] | None -> [])
  in
  Json.Obj
    [
      ("command", Json.Arr (List.map (fun s -> Json.Str s) command));
      ("paths", Json.Arr (List.map (fun s -> Json.Str s) paths));
      ("run_seconds", Json.Int run_seconds);
      ("workloads", Json.Arr (List.map (fun (n, w) -> Json.Obj [ ("name", Json.Str n); ("why", Json.Str w) ]) workloads));
      ("end_to_end", Json.Arr (List.map metric end_to_end));
      ("per_layer", Json.Arr (List.map metric per_layer));
    ]

let layer_map_json () =
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  Json.Arr
    (List.map
       (fun l ->
         Json.Obj
           ([ ("layers", strs l.layers); ("moves", strs l.moves); ("on", strs l.on) ]
           @ if l.note = "" then [] else [ ("note", Json.Str l.note) ]))
       layer_map)
