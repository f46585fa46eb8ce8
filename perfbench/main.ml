(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   builds the workload's inputs from the seed, then repeats it for about
   S seconds.  The first repetition is the checked one: it records the
   client history for the one-copy oracle and the counters that need a
   subscription.  Every later repetition must reproduce its
   deterministic counters bit for bit; churn's checked repetition runs on
   one lane and the others on every core, so that check also covers the
   lane count.  End-to-end times are medians over the untraced
   repetitions; with --trace 1 traced and untraced repetitions
   alternate, the span file is written to .perfbench/, and the last line
   carries the per-layer numbers instead.  The last line of stdout is
   one JSON object; the exit code is 1 when any correctness check
   failed and 2 on bad arguments.  Its attempted and failed fields count
   the seed's ops once, as the checked repetition ran them.

     main.exe --spec        prints BENCHMARK.json
     main.exe --layer-map   prints the layer map (perfbench/layer_map.json) *)

open Workloads

let usage = "main.exe --workload steady|wire|churn|brownout --seed N --seconds S --trace 0|1"

(* Sizes of one repetition.  churn's repetitions are kept short so that
   a run holds a dozen of them: the host's speed drifts over seconds,
   and a median over many short repetitions moves less than one over a
   few long ones.  Over ten seeds on a shared 2-vCPU host, setup_s
   varied by 0.29 (quartile distance over median) with 64 ops per group
   and by 0.10 with 32. *)
let steady_ops = 4000
let churn_ops = 32
let brownout_horizon = 2000.0
let min_reps = 3

let lanes () = max 1 (min churn_groups (Sim.Domains_compat.recommended_domains ()))

type setup = {
  run_rep : mode -> rep;
  replays : unit -> (int * (int * Blockdev.Block.t) array * int) list;
  encoded : bool;
}

(* Where two reps' deterministic parts differ: counters (summed and per
   device), outcomes and the virtual latency of every successful op.
   Empty when identical. *)
let same_floats x y = Array.length x = Array.length y && Array.for_all2 Float.equal x y

let fingerprint_diff (a : rep) (b : rep) =
  let same_keys = List.map fst a.counts = List.map fst b.counts in
  let counts =
    List.filter_map
      (fun (k, x) ->
        let y = get b.counts k in
        if Float.equal x y then None else Some (Printf.sprintf "%s %g vs %g" k x y))
      a.counts
  in
  (if same_keys then [] else [ "counter names" ])
  @ counts
  @ (if same_floats a.per_device b.per_device then [] else [ "the per-device counters" ])
  @ (if a.outcome = b.outcome then [] else [ "outcome" ])
  @ if same_floats a.virt b.virt then [] else [ "virtual latencies" ]

(* Inputs come from the seed alone; every repetition reuses them. *)
let prepare workload ~seed =
  match workload with
  | "steady" | "wire" ->
      let inputs = steady_inputs ~seed ~ops:steady_ops in
      let encoded = workload = "wire" in
      {
        run_rep = (fun mode -> steady_like ~encoded ~mode inputs);
        replays = (fun () -> [ (steady_blocks, Replay.writes_of inputs.ops, n_sites * List.length schemes) ]);
        encoded;
      }
  | "churn" ->
      {
        (* The checked rep runs on one lane, so comparing every later rep
           with it also checks that the lane count changes nothing. *)
        run_rep = (fun mode -> churn ~lanes:(if mode.checked then 1 else lanes ()) ~mode ~seed ~ops:churn_ops);
        replays =
          (fun () ->
            List.init churn_groups (fun g ->
                let blocks, _, ops = churn_group_ops ~seed ~ops:churn_ops g in
                (blocks, Replay.writes_of ops, n_sites)));
        encoded = false;
      }
  | "brownout" ->
      let a = brownout_inputs ~seed ~horizon:brownout_horizon in
      {
        run_rep = (fun mode -> brownout ~mode a);
        replays = (fun () -> [ (brownout_blocks, Replay.writes_of a.aops, brownout_sites) ]);
        encoded = false;
      }
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

let pick ?(select = Pct.select) ~what sorted q =
  match select sorted q with
  | Some p -> p
  | None ->
      failwith
        (Printf.sprintf "%s: %d samples leave fewer than %d beyond the %g quantile" what (Array.length sorted)
           Pct.min_beyond q)

type sample = { value : float; note : string }

let issued (r : rep) = float_of_int r.outcome.Outcome.issued
let ratio a b = if Float.equal b 0.0 then 0.0 else a /. b

let end_to_end ~(checked : rep) ~(timed : rep list) ~peak_words =
  let n = List.length timed in
  let med what f =
    { value = Pct.median (List.map f timed); note = Printf.sprintf "median of %d reps (%s)" n what }
  in
  let walls = List.map (fun (r : rep) -> Pct.sorted r.op_wall_ns) timed in
  let wall q = Pct.median (List.map (fun w -> (pick ~what:"op wall" w q).Pct.value /. 1e3) walls) in
  let samples = Array.length checked.op_wall_ns in
  let virts = Pct.sorted checked.virt in
  let virt q =
    let p = pick ~select:Pct.select_mid ~what:"virtual latency" virts q in
    { value = p.Pct.value; note = Printf.sprintf "%d samples, %d beyond" p.Pct.samples p.Pct.beyond }
  in
  let c = checked.counts in
  let det v = { value = v; note = "deterministic" } in
  [
    ("setup_s", med "wall" (fun r -> r.setup_s));
    ("run_s", med "wall" (fun r -> r.run.Clock.wall_s));
    ("cpu_s", med "process CPU" (fun r -> r.run.Clock.cpu_s));
    ("ops_per_s", med "ops / run_s" (fun r -> issued r /. r.run.Clock.wall_s));
    ("op_wall_p50_us", { value = wall 0.5; note = Printf.sprintf "median of %d reps (p50 of %d samples each)" n samples });
    ("op_wall_p99_us", { value = wall 0.99; note = Printf.sprintf "median of %d reps (p99 of %d samples each)" n samples });
    ("virt_p50", virt 0.5);
    ("virt_p99", virt 0.99);
    ("goodput", det (float_of_int checked.outcome.Outcome.ok /. checked.virt_s));
    ("ok_frac", det (Outcome.ok_frac checked.outcome));
    ("msgs_per_op", det (get c "msgs" /. issued checked));
    ("bytes_per_op", det (get c "bytes" /. issued checked));
    ("availability", det (get c "avail_num" /. get c "avail_den"));
    ( "peak_heap_mb",
      {
        value = float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.0;
        note = "process peak through the checked rep";
      } );
  ]

let per_layer ~setup ~(checked : rep) ~(timed : rep list) ~(traced : rep list) ~replay_trace =
  let c = checked.counts and p = checked.probes in
  let ops = issued checked in
  let med f = Pct.median (List.map f timed) in
  let tmed k = med (fun r -> get r.timed k) in
  let busy = med (fun r -> r.busy_s) in
  let codec =
    let devices = get c "devices" in
    Replay.codec replay_trace
      ~capacity:(int_of_float (get c "blocks" /. devices))
      ~n_sites:(int_of_float (get c "sites" /. devices))
      ~count:(fun cat -> get c (cat_key cat))
  in
  let stores =
    List.map
      (fun (capacity, writes, replicas) -> (Replay.store replay_trace ~capacity writes, Array.length writes, replicas))
      (setup.replays ())
  in
  let total_writes = List.fold_left (fun a (_, w, _) -> a + w) 0 stores in
  let per_write f =
    ratio (List.fold_left (fun a (s, w, _) -> a +. (f s *. float_of_int w)) 0.0 stores) (float_of_int total_writes)
  in
  let write_ns = per_write (fun s -> s.Replay.write_ns) in
  let predicate_us s =
    let ns = List.fold_left (fun a r -> a +. get r.timed ("probe_ns." ^ s)) 0.0 traced in
    let k = List.fold_left (fun a r -> a +. get r.timed ("probe_n." ^ s)) 0.0 traced in
    ratio ns k /. 1e3
  in
  let lanes_v f = med (fun r -> f r.lanes) in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  let ops_per_s reps = Pct.median (List.map (fun r -> issued r /. r.run.Clock.wall_s) reps) in
  let trace_all = List.fold_left Trace.merge checked.trace [ Trace.freeze replay_trace ] in
  [
    ("engine.events_per_op", get c "events" /. ops);
    ("engine.queue_peak", get p "queue.peak");
    ("protocol.rounds_per_op", get p "rounds" /. ops);
  ]
  @ List.map
      (fun op -> ("net.msgs_per_op." ^ Net.Message.operation_to_string op, get c (op_key op) /. ops))
      Net.Message.all_operations
  @ [
      ("stub.attempts_per_op", get c "attempts" /. ops);
      ("stub.failovers", get c "failovers");
      ("stub.retries", get c "retries");
      ("codec.encode_ns", codec.Replay.encode_ns);
      ("codec.decode_ns", codec.Replay.decode_ns);
      ("codec.crc_ns_per_kb", codec.Replay.crc_ns_per_kb);
      ( "codec.share",
        if setup.encoded then
          ((get c "msgs" *. codec.Replay.encode_ns) +. (get c "delivered" *. codec.Replay.decode_ns)) *. 1e-9 /. busy
        else 0.0 );
      ("ingress.frames_rejected", get c "frames_rejected");
      ("ingress.retransmitted", get c "retransmitted");
      ("ingress.quarantine_trips", get c "quarantine_trips");
      ("ingress.useful_ratio", ratio (get c "msgs") (get c "msgs" +. get c "retransmitted"));
      ("store.journal_commits_per_write", ratio (get c "journal_commits") (get c "writes"));
      ("store.write_ns", write_ns);
      ("store.read_verified_ns", per_write (fun s -> s.Replay.read_verified_ns));
      ("store.checksum_ok_ns", per_write (fun s -> s.Replay.checksum_ok_ns));
      ( "store.bytes_resident",
        List.fold_left
          (fun a (s, _, replicas) -> a +. float_of_int (s.Replay.words_resident * (Sys.word_size / 8) * replicas))
          0.0 stores );
      ("store.share_ub", get c "journal_commits" *. write_ns *. 1e-9 /. busy);
    ]
  @ List.map (fun s -> ("monitor.state_changes." ^ s, get p ("changes." ^ s))) Spec.schemes
  @ List.map (fun s -> ("monitor.predicate_us." ^ s, predicate_us s)) Spec.schemes
  @ [
      ( "monitor.share_lb",
        List.fold_left (fun a s -> a +. (get p ("changes." ^ s) *. predicate_us s *. 1e-6)) 0.0 Spec.schemes /. busy );
    ]
  @ List.map (fun s -> ("setup.create_s." ^ s, tmed ("setup." ^ s))) Spec.schemes
  @ [
      ("setup.us_per_block", med (fun r -> r.setup_s) /. get c "blocks" *. 1e6);
      ("lanes.count", lanes_v (fun l -> float_of_int (Array.length l)));
      ("lanes.busy_s", lanes_v sum);
      ("lanes.imbalance", lanes_v (fun l -> Array.fold_left Float.max 0.0 l /. (sum l /. float_of_int (Array.length l))));
      ( "lanes.parallel_eff",
        med (fun r -> sum r.lanes /. (float_of_int (Array.length r.lanes) *. r.run.Clock.wall_s)) );
      ("server.sojourn_mean", ratio (get c "sojourn_sum") (get c "sojourn_n"));
      ("server.depth_mean", ratio (get c "depth_sum") (get c "depth_n"));
      ("server.depth_p99", get c "depth_p99.peak");
      ("server.shed", get c "server_shed");
      ("robust.hedged", get c "hedged");
      ("robust.hedge_win_ratio", ratio (get c "hedge_wins") (get c "hedged"));
      ("robust.breaker_trips", get c "breaker_trips");
      ("robust.admission_shed", get c "admission_shed");
      ("gc.minor_words_per_op", tmed "minor_words" /. ops);
      ("gc.major_collections", tmed "major_collections");
      ("oracle.check_s", get checked.timed "oracle_s");
      ("trace.overhead", 1.0 -. (ops_per_s traced /. ops_per_s timed));
    ]
  @ List.map
      (fun l -> ("trace.self_s." ^ l, Trace.self_s trace_all l))
      [ "device"; "op"; "engine"; "monitor"; "lane"; "oracle"; "codec"; "crc"; "store" ]

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (name, unit_, value, note) -> Printf.printf "  %-34s %16s %-8s %s\n" name (Json.num value) unit_ note) rows

let main () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let spec = ref false and layer_map = ref false in
  let args =
    [
      ("--workload", Arg.Set_string workload, "NAME steady, wire, churn or brownout");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) numbers");
      ("--spec", Arg.Set spec, " print BENCHMARK.json");
      ("--layer-map", Arg.Set layer_map, " print the layer map");
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !spec then print_string (Json.pretty (Spec.benchmark_json ()))
  else if !layer_map then print_string (Json.pretty (Spec.layer_map_json ()))
  else begin
    let seed = match !seed with Some s -> s | None -> raise (Arg.Bad "--seed is required") in
    if !seconds < 1 then raise (Arg.Bad "--seconds must be at least 1");
    if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
    if not (List.mem_assoc !workload Spec.workloads) then raise (Arg.Bad ("unknown workload " ^ !workload));
    let traced_run = !trace = 1 in
    let t_start = Clock.wall_ns () in
    let elapsed () = float_of_int (Clock.wall_ns () - t_start) *. 1e-9 in
    let setup = prepare !workload ~seed in
    let run mode =
      (* Each repetition starts from a compacted heap, so the garbage of
         one is not collected during the timed phases of the next. *)
      Gc.compact ();
      let major0 = (Gc.quick_stat ()).Gc.major_collections in
      let r = setup.run_rep mode in
      let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
      { r with timed = r.timed @ [ ("major_collections", float_of_int major) ] }
    in
    let checked = run { checked = true; traced = traced_run } in
    let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
    (* Alternate traced and untraced reps in a traced run; stop when the
       next rep would overrun the measuring time. *)
    let rec loop i acc =
      let mode = { checked = false; traced = traced_run && i mod 2 = 1 } in
      let t0 = elapsed () in
      let r = run mode in
      let acc = (mode, r) :: acc in
      let took = elapsed () -. t0 in
      let enough = List.length acc >= min_reps + if traced_run then 1 else 0 in
      if enough && elapsed () +. took > float_of_int !seconds then List.rev acc else loop (i + 1) acc
    in
    let reps = loop 0 [] in
    let timed = List.filter_map (fun (m, r) -> if m.traced then None else Some r) reps in
    let traced = List.filter_map (fun (m, r) -> if m.traced then Some r else None) reps in
    let twin_failures =
      List.filter_map
        (fun (_, r) ->
          match fingerprint_diff checked r with
          | [] -> None
          | d -> Some (Printf.sprintf "determinism: a repeat of seed %d differs: %s" seed (String.concat ", " d)))
        reps
    in
    let failures = checked.failures @ List.concat_map (fun (_, r) -> r.failures) reps @ twin_failures in
    Printf.printf "workload %s  seed %d  reps %d (+1 checked)  lanes %d  %.1f s\n" !workload seed
      (List.length reps) (Array.length (List.hd timed).lanes) (elapsed ());
    Printf.printf "ops per rep %d  ok %d  failed %d (timed out %d, gave up %d, rejected %d, shed %d)\n"
      checked.outcome.Outcome.issued checked.outcome.Outcome.ok (Outcome.failed checked.outcome)
      checked.outcome.Outcome.timed_out checked.outcome.Outcome.gave_up checked.outcome.Outcome.rejected
      checked.outcome.Outcome.shed;
    let unit_of name l = (List.find (fun m -> String.equal m.Spec.name name) l).Spec.unit_ in
    let metrics =
      if traced_run then begin
        let replay_trace = Trace.create ~tid:100 () in
        let rows = per_layer ~setup ~checked ~timed ~traced ~replay_trace in
        let dir = ".perfbench" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path = Printf.sprintf "%s/trace-%s-%d.json" dir !workload seed in
        Trace.write_chrome path (Trace.merge checked.trace (Trace.freeze replay_trace));
        print_table "per layer (traced run)" (List.map (fun (n, v) -> (n, unit_of n Spec.per_layer, v, "")) rows);
        Printf.printf "  spans written to %s\n" path;
        List.map (fun (n, v) -> (n, v, unit_of n Spec.per_layer)) rows
      end
      else begin
        let rows = end_to_end ~checked ~timed ~peak_words in
        print_table "end to end"
          (List.map (fun (n, s) -> (n, unit_of n Spec.end_to_end, s.value, s.note)) rows);
        Printf.printf "  lane busy s:%s\n"
          (String.concat "" (List.map (Printf.sprintf " %.3f") (Array.to_list (List.hd timed).lanes)));
        List.map (fun (n, s) -> (n, s.value, unit_of n Spec.end_to_end)) rows
      end
    in
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
    (* attempted and failed count the seed's ops once.  Every repetition
       replays the same ops and must reproduce the checked outcome (the
       determinism check above), so summing over repetitions would only
       multiply the counts by a repetition count that follows the host's
       speed, and the same seed would report different totals. *)
    let total = checked.outcome in
    print_endline
      (Json.compact
         (Json.Obj
            [
              ("correct", Json.Bool (failures = []));
              ("attempted", Json.Int total.Outcome.issued);
              ("failed", Json.Int (Outcome.failed total));
              ( "metrics",
                Json.Obj
                  (List.map
                     (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                     metrics) );
            ]));
    if failures <> [] then exit 1
  end

let () =
  try main () with
  | Arg.Bad msg | Failure msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2
