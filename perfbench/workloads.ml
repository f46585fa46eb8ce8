(* The four workloads.  Each one builds its devices from the workload
   seed, drives them through the library's public API and reports one
   [rep]: host timings, per-op samples, the deterministic counters the
   determinism check compares, and the correctness checks that failed.

   Layers are measured from outside: the benchmark times its own calls
   into each module and reads the modules' public counters.  Nothing
   here changes library code. *)

module RD = Blockrep.Reliable_device
module C = Blockrep.Cluster
module AG = Workload.Access_gen

(* A checked rep records the client history for the oracle and reads
   the counters that need a subscription (rounds, state changes, queue
   peaks); a traced rep records spans and times the availability
   predicate.  Timed reps do neither: they are the ones end-to-end
   numbers come from. *)
type mode = { checked : bool; traced : bool }

(* One repetition of a workload. *)
type rep = {
  setup_s : float;  (** wall seconds before the first op, summed over devices *)
  run : Clock.lap;  (** the steady phase *)
  busy_s : float;  (** summed steady-phase wall of every device (= run wall unless sharded) *)
  lanes : float array;  (** wall seconds each lane was busy *)
  op_wall_ns : float array;  (** host wall per client op (per arrival slot, open loop) *)
  virt : float array;  (** virtual latency of successful ops *)
  outcome : Outcome.t;
  virt_s : float;  (** virtual seconds the steady phase spanned *)
  counts : (string * float) list;  (** deterministic counters, summed over devices *)
  per_device : float array;  (** every device's counter values, in device order *)
  probes : (string * float) list;  (** deterministic counters read in the checked rep only *)
  timed : (string * float) list;  (** per-layer host timings of this rep *)
  failures : string list;  (** correctness checks that failed *)
  trace : Trace.frozen;
}

let schemes = Blockrep.Types.[ Voting; Available_copy; Naive_available_copy; Dynamic_voting ]

let tag_of = function
  | Blockrep.Types.Voting -> "mcv"
  | Available_copy -> "ac"
  | Naive_available_copy -> "nac"
  | Dynamic_voting -> "dv"

(* Counters merge by sum, except peaks, which merge by max. *)
let merge_kv a b =
  let is_peak k = String.ends_with ~suffix:".peak" k in
  let add acc (k, v) =
    match List.assoc_opt k acc with
    | None -> acc @ [ (k, v) ]
    | Some w ->
        let merged = if is_peak k then Float.max w v else w +. v in
        List.map (fun (k', x) -> if String.equal k k' then (k, merged) else (k', x)) acc
  in
  List.fold_left add a b

let get kv k = Option.value ~default:0.0 (List.assoc_opt k kv)

let combine a b =
  {
    setup_s = a.setup_s +. b.setup_s;
    run = { Clock.wall_s = a.run.wall_s +. b.run.wall_s; cpu_s = a.run.cpu_s +. b.run.cpu_s };
    busy_s = a.busy_s +. b.busy_s;
    lanes = [| a.busy_s +. b.busy_s |];
    op_wall_ns = Array.append a.op_wall_ns b.op_wall_ns;
    virt = Array.append a.virt b.virt;
    outcome = Outcome.add a.outcome b.outcome;
    virt_s = a.virt_s +. b.virt_s;
    counts = merge_kv a.counts b.counts;
    per_device = Array.append a.per_device b.per_device;
    probes = merge_kv a.probes b.probes;
    timed = merge_kv a.timed b.timed;
    failures = a.failures @ b.failures;
    trace = Trace.merge a.trace b.trace;
  }

let combine_all = function
  | [] -> invalid_arg "Workloads.combine_all: no reps"
  | r :: rest -> List.fold_left combine r rest

let cat_key c = "cat." ^ Net.Message.to_string c
let op_key op = "msgs." ^ Net.Message.operation_to_string op

(* Deterministic counters every device reports, whatever the mode. *)
let device_counts device ~writes =
  let c = RD.cluster device in
  let tr = C.traffic c in
  let d = RD.degradation device in
  let mon = C.monitor c in
  let observed = Blockrep.Availability_monitor.time_observed mon in
  let fi = float_of_int in
  [
    ("msgs", fi (Net.Traffic.total tr));
    ("bytes", fi (Net.Traffic.total_bytes tr));
    ("delivered", fi (Blockrep.Runtime.Transport.messages_delivered (C.network c)));
    ("events", fi (Sim.Engine.events_fired (C.engine c)));
    ("attempts", fi d.site_attempts);
    ("failovers", fi d.failovers);
    ("retries", fi d.retries);
    ("frames_rejected", fi d.frames_rejected);
    ("retransmitted", fi d.frames_retransmitted);
    ("quarantine_trips", fi d.quarantine_trips);
    ("corrupted", fi d.corrupted_deliveries);
    ("journal_commits", fi (C.storage_counters c).Blockdev.Durable_store.journal_commits);
    ("writes", fi writes);
    ("avail_num", Blockrep.Availability_monitor.availability mon *. observed);
    ("avail_den", observed);
    ("hedged", fi d.hedged);
    ("hedge_wins", fi d.hedge_wins);
    ("breaker_trips", fi d.breaker_trips);
    ("admission_shed", fi d.shed);
    ("blocks", fi (C.n_blocks c));
    ("sites", fi (C.n_sites c));
    ("devices", 1.0);
  ]
  @ List.map (fun op -> (op_key op, fi (Net.Traffic.by_operation tr op))) Net.Message.all_operations
  @ List.map (fun cat -> (cat_key cat, fi (Net.Traffic.by_category tr cat))) Net.Message.all

let conservation_failures ~what device =
  let d = RD.degradation device in
  (if RD.degradation_conserved d then [] else [ what ^ ": degradation counters not conserved" ])
  @ if RD.wire_conserved d then [] else [ what ^ ": wire corruption counters not conserved" ]

(* ------------------------------------------------------------------ *)
(* Closed loop: one client, one device                                 *)
(* ------------------------------------------------------------------ *)

type closed = {
  config : Blockrep.Config.t;
  ops : AG.op array;
  think : float;  (** virtual think time after each op *)
  churn : (int * float * float) option;  (** failure seed, lambda, mu *)
  all_must_succeed : bool;
}

let count_writes ops = Array.fold_left (fun n op -> if AG.is_read op then n else n + 1) 0 ops

let exec device = function
  | AG.Read b -> RD.read_block device b <> None
  | AG.Write (b, data) -> RD.write_block device b data

(* Predicate probes: time [Cluster.system_available], the predicate the
   availability monitor evaluates on every site-state change, on every
   [probe_every]-th change. *)
let probe_every = 4

(* A closed-loop device after its build, before its first op. *)
type built = { device : RD.t; failure_gen : Workload.Failure_gen.t option; built_s : float }

let build_closed ~tracer spec =
  let tag = tag_of spec.config.Blockrep.Config.scheme in
  let (device, failure_gen), lap =
    Clock.time (fun () ->
        Trace.opt tracer ~layer:"device" ("build " ^ tag) (fun () ->
            let device = RD.of_config spec.config in
            let gen =
              match spec.churn with
              | None -> None
              | Some (fseed, lambda, mu) ->
                  Some
                    (Workload.Failure_gen.attach (RD.cluster device) ~rng:(Util.Prng.create fseed)
                       ~lambda ~mu)
            in
            (device, gen)))
  in
  { device; failure_gen; built_s = lap.Clock.wall_s }

let drive_closed ~mode ~tracer ~op_base spec { device; failure_gen; built_s } =
  let tag = tag_of spec.config.Blockrep.Config.scheme in
  let cluster = RD.cluster device in
  let rt = C.runtime cluster in
  let engine = C.engine cluster in
  let history = Check.History.create () in
  let rounds = ref 0 and changes = ref 0 and queue_peak = ref 0 in
  let probe_ns = ref 0 and probes = ref 0 in
  if mode.checked then begin
    Check.History.attach_stub history (RD.stub device);
    Blockrep.Runtime.on_round_start rt (fun ~coordinator:_ ~deadline:_ ~expected:_ -> incr rounds)
  end;
  if mode.checked || mode.traced then
    Blockrep.Runtime.on_state_change rt (fun _ _ ->
        incr changes;
        if mode.traced && !changes mod probe_every = 1 then
          Trace.opt tracer ~layer:"monitor" "system_available" (fun () ->
              let t0 = Clock.wall_ns () in
              ignore (Sys.opaque_identity (C.system_available cluster));
              probe_ns := !probe_ns + (Clock.wall_ns () - t0);
              incr probes));
  let ops = spec.ops in
  let n = Array.length ops in
  let wall = Array.make n 0.0 and virt = Array.make n 0.0 in
  let n_ok = ref 0 in
  let v0 = Sim.Engine.now engine in
  let minor0 = Gc.minor_words () in
  let mark = Clock.start () in
  for i = 0 to n - 1 do
    let s = Sim.Engine.now engine in
    let t0 = Clock.wall_ns () in
    let ok =
      match tracer with
      | None -> exec device ops.(i)
      | Some tr ->
          let name = if AG.is_read ops.(i) then "read" else "write" in
          Trace.span tr ~op:(op_base + i) ~layer:"op" name (fun () -> exec device ops.(i))
    in
    wall.(i) <- float_of_int (Clock.wall_ns () - t0);
    if ok then begin
      virt.(!n_ok) <- Sim.Engine.now engine -. s;
      incr n_ok
    end;
    if mode.checked then queue_peak := max !queue_peak (Sim.Engine.queue_size engine);
    if spec.think > 0.0 then
      Trace.opt tracer ~layer:"engine" "think" (fun () ->
          C.run_until cluster (Sim.Engine.now engine +. spec.think))
  done;
  let run = Clock.stop mark in
  let minor = Gc.minor_words () -. minor0 in
  let virt_s = Sim.Engine.now engine -. v0 in
  (match failure_gen with
  | Some g -> Workload.Failure_gen.stop g
  | None -> C.settle cluster);
  let outcome = Outcome.of_degradation (RD.degradation device) in
  let what = Printf.sprintf "%s (cluster seed %d)" tag spec.config.Blockrep.Config.seed in
  let failures =
    conservation_failures ~what device
    @ (if outcome.Outcome.ok = !n_ok && outcome.Outcome.issued = n then []
       else [ what ^ ": device request counters disagree with the ops issued" ])
    @
    if spec.all_must_succeed && !n_ok <> n then
      [ Printf.sprintf "%s: %d of %d ops failed on a fault-free device" what (n - !n_ok) n ]
    else []
  in
  let oracle_failures, oracle_s =
    match mode.checked with
    | true ->
        let violations, lap =
          Clock.time (fun () ->
              Trace.opt tracer ~layer:"oracle" "Oracle.check" (fun () -> Check.Oracle.check history))
        in
        let f =
          match violations with
          | [] -> []
          | v :: _ ->
              [
                Printf.sprintf "%s: %d one-copy violation(s), first: %s" what (List.length violations)
                  (Format.asprintf "%a" Check.Violation.pp v);
              ]
        in
        (f, lap.Clock.wall_s)
    | false -> ([], 0.0)
  in
  let counts = device_counts device ~writes:(count_writes ops) in
  {
    setup_s = built_s;
    run;
    busy_s = run.Clock.wall_s;
    lanes = [| run.Clock.wall_s |];
    op_wall_ns = wall;
    virt = Array.sub virt 0 !n_ok;
    outcome;
    virt_s;
    counts;
    per_device = Array.of_list (List.map snd counts);
    probes =
      (if mode.checked then
         [
           ("rounds", float_of_int !rounds);
           ("changes." ^ tag, float_of_int !changes);
           ("queue.peak", float_of_int !queue_peak);
         ]
       else []);
    timed =
      [
        ("setup." ^ tag, built_s);
        ("minor_words", minor);
        ("oracle_s", oracle_s);
        ("probe_ns." ^ tag, float_of_int !probe_ns);
        ("probe_n." ^ tag, float_of_int !probes);
      ];
    failures = failures @ oracle_failures;
    trace = Trace.empty;
  }

let run_closed ~mode ~tracer ~op_base spec = drive_closed ~mode ~tracer ~op_base spec (build_closed ~tracer spec)

let tracer_for mode ~tid = if mode.traced then Some (Trace.create ~tid ()) else None
let frozen = function Some t -> Trace.freeze t | None -> Trace.empty

(* ------------------------------------------------------------------ *)
(* steady and wire                                                     *)
(* ------------------------------------------------------------------ *)

let n_sites = 5
let steady_blocks = 16384
let reads_per_write = 2.5

(* 1% of frames damaged, split over the five injectors in the same
   proportions as the paper-figure harness's corruption section. *)
let ambient_corruption rate =
  {
    Net.Faults.bit_flip = 0.6 *. rate;
    truncate = 0.1 *. rate;
    garbage_prefix = 0.1 *. rate;
    garbage_suffix = 0.1 *. rate;
    splice = 0.1 *. rate;
  }

type inputs = { ops : AG.op array; seed : int }

let steady_inputs ~seed ~ops =
  let gen =
    AG.create ~rng:(Util.Prng.create seed) ~n_blocks:steady_blocks ~reads_per_write
      ~locality:(AG.Zipf 1.0) ~payload_seed:(Printf.sprintf "steady-%d" seed) ()
  in
  { ops = Array.of_list (AG.take gen ops); seed }

(* Section 5 at rho -> 0: with no failures every read and every write
   costs exactly the model's transmissions. *)
let model_failures (inputs : inputs) scheme (r : rep) =
  let model =
    match scheme with
    | Blockrep.Types.Voting -> Some Analysis.Traffic_model.Voting
    | Available_copy -> Some Analysis.Traffic_model.Available_copy
    | Naive_available_copy -> Some Analysis.Traffic_model.Naive_available_copy
    | Dynamic_voting -> None
  in
  match model with
  | None -> []
  | Some m ->
      let writes = count_writes inputs.ops in
      let reads = Array.length inputs.ops - writes in
      let env = Analysis.Traffic_model.Multicast in
      let check what measured count expected =
        let per_op = if count = 0 then 0.0 else get r.counts measured /. float_of_int count in
        if Float.abs (per_op -. expected) < 1e-6 then []
        else
          [
            Printf.sprintf "%s %s: %.6f transmissions per op, Section 5 model says %.6f"
              (tag_of scheme) what per_op expected;
          ]
      in
      check "reads" "msgs.read" reads (Analysis.Traffic_model.read_cost env m ~n:n_sites ~rho:1e-12)
      @ check "writes" "msgs.write" writes
          (Analysis.Traffic_model.write_cost env m ~n:n_sites ~rho:1e-12)

let steady_like ~encoded ~mode (inputs : inputs) =
  let tracer = tracer_for mode ~tid:0 in
  let r =
    combine_all
    (List.mapi
       (fun i scheme ->
         let fault_profile =
           if encoded then Net.Faults.make_exn ~corruption:(ambient_corruption 0.01) ()
           else Net.Faults.pristine
         in
         let config =
           Blockrep.Config.make_exn ~scheme ~n_sites ~n_blocks:steady_blocks
             ~seed:(Util.Prng.derive ~seed:inputs.seed i) ~fault_profile ~encoded_delivery:encoded ()
         in
         let r =
           run_closed ~mode ~tracer ~op_base:(i * Array.length inputs.ops)
             { config; ops = inputs.ops; think = 0.0; churn = None; all_must_succeed = true }
         in
         if mode.checked && not encoded then
           { r with failures = r.failures @ model_failures inputs scheme r }
         else r)
       schemes)
  in
  { r with trace = frozen tracer }

(* ------------------------------------------------------------------ *)
(* churn                                                               *)
(* ------------------------------------------------------------------ *)

let churn_blocks = 65536
(* 128 groups rather than fewer, larger ones: the availability predicate
   of dynamic voting walks every block of its group on each site-state
   change, so at a fixed block count its cost per failure falls with the
   group count, and a repetition of about the same cost averages more
   failures.  Over six seeds, run_s varied by 21% (quartile distance over
   median) with 64 groups and by 5% with 128. *)
let churn_groups = 128

(* Group sizes depend only on the block count and the group count. *)
let churn_sizes =
  let sizes = Array.make churn_groups 0 in
  for b = 0 to churn_blocks - 1 do
    let g = Sim.Shard_engine.shard_of_block ~shards:churn_groups b in
    sizes.(g) <- sizes.(g) + 1
  done;
  Array.to_list sizes

let churn_group_ops ~seed ~ops g =
  let blocks = List.nth churn_sizes g in
  let gseed = Util.Prng.derive ~seed g in
  let gen =
    AG.create ~rng:(Util.Prng.create gseed) ~n_blocks:blocks ~reads_per_write ~locality:AG.Uniform
      ~payload_seed:(Printf.sprintf "churn-%d-%d" seed g) ()
  in
  (blocks, gseed, Array.of_list (AG.take gen ops))

let churn_scheme g =
  match g mod 4 with
  | 0 -> Blockrep.Types.Voting
  | 1 -> Available_copy
  | 2 -> Naive_available_copy
  | _ -> Dynamic_voting

let churn_spec ~seed ~ops g =
  let blocks, gseed, ops_arr = churn_group_ops ~seed ~ops g in
  {
    config = Blockrep.Config.make_exn ~scheme:(churn_scheme g) ~n_sites ~n_blocks:blocks ~seed:gseed ();
    ops = ops_arr;
    think = 0.5;
    churn = Some (Util.Prng.derive ~seed:gseed 1, 0.05, 1.0);
    all_must_succeed = false;
  }

(* One lane of [churn]: the contiguous, balanced chunk of groups that
   [Sim.Shard_engine.map_tasks] documents for lane [lane].  The lane
   builds every device of its chunk, then waits until every lane has
   built, so no op runs during set-up.  Lanes build in turn, lane [l]
   after lanes [0 .. l-1], so a build never shares the host with another
   lane's work.  [turn] counts the lanes that have built; the last lane
   to build returns the mark at which the op phase starts. *)
let churn_lane ~seed ~ops ~mode ~lanes ~turn lane =
  let q = churn_groups / lanes and r = churn_groups mod lanes in
  let lo = (lane * q) + min lane r in
  let groups = List.init (q + if lane < r then 1 else 0) (fun i -> lo + i) in
  let wait_for k =
    while Atomic.get turn < k do
      ()
    done
  in
  wait_for lane;
  let built =
    match
      List.map
        (fun g ->
          let spec = churn_spec ~seed ~ops g in
          let tracer = tracer_for mode ~tid:(g + 1) in
          (g, spec, tracer, build_closed ~tracer spec))
        groups
    with
    | built -> built
    | exception e ->
        Atomic.incr turn;
        raise e
  in
  let release = if lane = lanes - 1 then Some (Clock.start ()) else None in
  Atomic.incr turn;
  wait_for lanes;
  let reps =
    List.map
      (fun (g, spec, tracer, b) ->
        let r =
          Trace.opt tracer ~layer:"lane" (Printf.sprintf "group %d" g) (fun () ->
              drive_closed ~mode ~tracer ~op_base:(g * ops) spec b)
        in
        { r with trace = frozen tracer })
      built
  in
  (release, reps)

(* Set-up and ops run in separate phases: [setup_s] sums the group
   builds, and [run] spans the op phase alone, from the moment the last
   lane has built to the end of the sharded map. *)
let churn ~lanes ~mode ~seed ~ops =
  let plan = Sim.Shard_engine.plan_lanes ~shards:lanes ~tasks:churn_groups in
  (* Lanes that run one after another cannot wait for each other. *)
  let lanes = if plan.parallel then plan.lanes_used else 1 in
  let turn = Atomic.make 0 in
  let per_lane =
    Sim.Shard_engine.map_tasks ~shards:lanes ~tasks:lanes (fun lane ->
        churn_lane ~seed ~ops ~mode ~lanes ~turn lane)
  in
  let run =
    match List.find_map fst (Array.to_list per_lane) with
    | Some release -> Clock.stop release
    | None -> invalid_arg "Workloads.churn: no lane marked the op phase"
  in
  let r = combine_all (List.concat_map snd (Array.to_list per_lane)) in
  let busy (_, reps) = List.fold_left (fun a (g : rep) -> a +. g.run.Clock.wall_s) 0.0 reps in
  { r with run; lanes = Array.map busy per_lane }

(* ------------------------------------------------------------------ *)
(* brownout                                                            *)
(* ------------------------------------------------------------------ *)

let brownout_sites = 3
let brownout_blocks = 16

(* The robustness stack of [Workload.Experiment.measure_brownout]:
   deadlines at twice the op budget, hedged reads, breakers and
   admission control, scaled by the default 4.0 op timeout. *)
let brownout_op_timeout = 4.0

let brownout_robustness =
  {
    Blockrep.Robustness.deadlines = true;
    op_budget = Some (2.0 *. brownout_op_timeout);
    hedge = Some { Blockrep.Robustness.quantile = 0.9; floor = 1.0 };
    breaker = Some { Blockrep.Robustness.threshold = 5; cooldown = 5.0 *. brownout_op_timeout };
    admission = Some 96;
  }

type arrivals = { due : float array; aops : AG.op array; aseed : int; horizon : float }

let brownout_inputs ~seed ~horizon =
  let rate = 2.0 *. Workload.Experiment.saturation_rate () in
  let rng = Util.Prng.create (Util.Prng.derive ~seed 7) in
  let rec gaps t acc =
    let t = t -. (log (Util.Prng.float_pos rng) /. rate) in
    if t > horizon then Array.of_list (List.rev acc) else gaps t (t :: acc)
  in
  let due = gaps 0.0 [] in
  let gen =
    AG.create ~rng:(Util.Prng.create seed) ~n_blocks:brownout_blocks ~reads_per_write
      ~payload_seed:(Printf.sprintf "brownout-%d" seed) ()
  in
  { due; aops = Array.of_list (AG.take gen (Array.length due)); aseed = seed; horizon }

let server_counts cluster =
  let servers = List.filter_map (C.server cluster) (List.init (C.n_sites cluster) Fun.id) in
  let fi = float_of_int in
  let hist =
    List.fold_left
      (fun acc s ->
        let h = Sim.Server.depth_histogram s in
        match acc with None -> Some h | Some a -> Some (Util.Stats.Histogram.merge a h))
      None servers
  in
  let depth_sum, depth_n =
    match hist with
    | None -> (0.0, 0.0)
    | Some h ->
        let c = Util.Stats.Histogram.counts h in
        let s = ref 0.0 in
        Array.iteri (fun i k -> s := !s +. (fi i *. fi k)) c;
        (!s, fi (Util.Stats.Histogram.total h))
  in
  let sojourn_sum, sojourn_n =
    List.fold_left
      (fun (s, n) srv ->
        let st = Sim.Server.sojourn srv in
        let k = Util.Stats.count st in
        if k = 0 then (s, n) else (s +. (Util.Stats.mean st *. fi k), n +. fi k))
      (0.0, 0.0) servers
  in
  [
    ("server_shed", fi (List.fold_left (fun a s -> a + Sim.Server.shed s) 0 servers));
    ("depth_sum", depth_sum);
    ("depth_n", depth_n);
    ( "depth_p99.peak",
      match hist with
      | Some h when Util.Stats.Histogram.in_range h > 0 -> Util.Stats.Histogram.quantile h 0.99
      | Some _ | None -> 0.0 );
    ("sojourn_sum", sojourn_sum);
    ("sojourn_n", sojourn_n);
  ]

let brownout ~mode (a : arrivals) =
  let tracer = tracer_for mode ~tid:0 in
  let n = Array.length a.due in
  let virt = Array.make n 0.0 and n_ok = ref 0 in
  let (device, engine), built =
    Clock.time (fun () ->
        Trace.opt tracer ~layer:"device" "build ac + schedule arrivals" (fun () ->
            let config =
              Blockrep.Config.make_exn ~scheme:Blockrep.Types.Available_copy ~n_sites:brownout_sites
                ~n_blocks:brownout_blocks ~seed:a.aseed
                ~service:Net.Service_model.default ~robustness:brownout_robustness ()
            in
            let device = RD.create ~home:1 (C.create config) in
            let cluster = RD.cluster device in
            C.set_rate_factor cluster 0 10.0;
            let engine = C.engine cluster in
            (* Latency counts from each arrival's due time. *)
            let settled due = function
              | Ok _ ->
                  virt.(!n_ok) <- Sim.Engine.now engine -. due;
                  incr n_ok
              | Error _ -> ()
            in
            Array.iteri
              (fun i due ->
                let issue () =
                  match a.aops.(i) with
                  | AG.Read b -> RD.read_block_async device b (fun r -> settled due (Result.map ignore r))
                  | AG.Write (b, data) ->
                      RD.write_block_async device b data (fun r -> settled due (Result.map ignore r))
                in
                ignore (Sim.Engine.schedule_at engine ~time:due issue : Sim.Engine.handle))
              a.due;
            (device, engine)))
  in
  let cluster = RD.cluster device in
  let wall = Array.make n 0.0 in
  let queue_peak = ref 0 in
  let minor0 = Gc.minor_words () in
  let mark = Clock.start () in
  (* One slot per arrival: the host work between the previous arrival's
     due time and this one's. *)
  for i = 0 to n - 1 do
    let t0 = Clock.wall_ns () in
    (match tracer with
    | None -> C.run_until cluster a.due.(i)
    | Some tr -> Trace.span tr ~op:i ~layer:"op" "arrival" (fun () -> C.run_until cluster a.due.(i)));
    wall.(i) <- float_of_int (Clock.wall_ns () - t0);
    if mode.checked then queue_peak := max !queue_peak (Sim.Engine.queue_size engine)
  done;
  Trace.opt tracer ~layer:"op" "drain" (fun () ->
      C.run_until cluster a.horizon;
      C.settle cluster);
  let run = Clock.stop mark in
  let minor = Gc.minor_words () -. minor0 in
  let outcome = Outcome.of_degradation (RD.degradation device) in
  let counts = device_counts device ~writes:(count_writes a.aops) @ server_counts cluster in
  let failures =
    conservation_failures ~what:"brownout" device
    @ (match RD.in_flight device with
      | 0 -> []
      | k -> [ Printf.sprintf "brownout: %d ops still in flight after the drain" k ])
    @ (if outcome.Outcome.issued = n && outcome.Outcome.ok = !n_ok then []
       else [ "brownout: device request counters disagree with the arrivals" ])
  in
  {
    setup_s = built.Clock.wall_s;
    run;
    busy_s = run.Clock.wall_s;
    lanes = [| run.Clock.wall_s |];
    op_wall_ns = wall;
    virt = Array.sub virt 0 !n_ok;
    outcome;
    virt_s = a.horizon;
    counts;
    per_device = Array.of_list (List.map snd counts);
    probes = (if mode.checked then [ ("queue.peak", float_of_int !queue_peak) ] else []);
    timed = [ ("setup.ac", built.Clock.wall_s); ("minor_words", minor) ];
    failures;
    trace = frozen tracer;
  }
