module Types = Blockrep.Types
module Cluster = Blockrep.Cluster
module Runtime = Blockrep.Runtime
module Store = Blockdev.Store
module Prng = Util.Prng

type event =
  | Fail of int
  | Repair of int
  | Partition of int list list
  | Heal
  | Crash_torn of int
  | Bitrot of int * int
  | Disk_replace of int
  | Slow_site of int * float
  | Burst of int
  | Queue_flood of int * int
  | Wire_corrupt of int * int
  | Wire_heal of int * int

type schedule = (float * event) list

type env = {
  scheme : Types.scheme;
  n_sites : int;
  n_blocks : int;
  seed : int;
  ops : int;
  mean_gap : float;
  reads_per_write : float;
  horizon : float;
  failures : bool;
  failure_rate : float;
  down_mean : float;
  partitions : bool;
  partition_rate : float;
  partition_duration : float;
  total_failures : bool;
  total_failure_rate : float;
  total_down_mean : float;
  faults : Net.Faults.profile;
  weaken_read : int option;
  weaken_write : int option;
  settle : float option;
  readback : bool;
  batch : int;
  crash_writes : bool;
  crash_write_rate : float;
  bitrot : bool;
  bitrot_rate : float;
  disk_replace : bool;
  disk_replace_rate : float;
  media_down_mean : float;
  service : Net.Service_model.t option;
  robustness : Blockrep.Robustness.t;
  slow_sites : bool;
  slow_rate : float;
  slow_factor : float;
  slow_mean : float;
  bursts : bool;
  burst_rate : float;
  burst_ops : int;
  queue_floods : bool;
  flood_rate : float;
  flood_count : int;
  encoded : bool;
  wire_corrupt_links : bool;
  wire_corrupt_rate : float;
  wire_corrupt_mean : float;
}

(* The group-commit fast path under chaos: client writes are absorbed by
   a write-back cache over the reliable device and committed in batched
   groups when the coalescing window closes (or on an explicit flush).
   The harness flushes eagerly just before injecting a failure or a
   partition — the moment a deployment's flush-on-failover hook fires —
   so the dirty set crosses the wire while the quorum that accepted the
   writes is still intact. *)
module Wb_cache = Fs.Buffer_cache.Make_batched (Blockrep.Reliable_device)

let supported_faults =
  Net.Faults.make_exn ~duplicate:0.05 ~reorder:0.05
    ~jitter:(Util.Dist.Uniform (0.0, 1.0))
    ~extra_delay:0.1 ()

(* Ambient byte damage of the wire envelope.  The hardened ingress
   redelivers a rejected frame up to [Net.Network.redelivery_budget]
   times, so at a combined per-frame corruption rate around 6% the
   residual loss is ~ 0.06^7 — far below anything a 25-seed sweep could
   surface.  A {e persistent} corruptor link defeats the budget by
   design, which is why [wire_corrupt_links] stays off here: that event
   turns corruption into message loss, and drops are outside every
   scheme's envelope (fire-and-forget updates are lost for good). *)
let supported_corruption =
  {
    Net.Faults.bit_flip = 0.02;
    truncate = 0.01;
    garbage_prefix = 0.01;
    garbage_suffix = 0.01;
    splice = 0.01;
  }

let default_env ?(seed = 1) scheme =
  let failures, total_failures =
    match scheme with
    | Types.Available_copy | Types.Naive_available_copy -> (true, true)
    | Types.Voting | Types.Dynamic_voting ->
        (* The one-round write (commit on votes, unacknowledged update
           multicast — the paper's 1+u message budget) leaves a window
           where a voter crashes after its vote was counted but before the
           update reaches its disk; a later read quorum formed without the
           writer can then be jointly stale.  Site failures are therefore
           outside the voting envelope — [run] with [failures = true]
           demonstrates the oracle catching exactly that. *)
        (false, false)
  in
  {
    scheme;
    n_sites = 3;
    n_blocks = 8;
    seed;
    ops = 110;
    mean_gap = 2.5;
    reads_per_write = 2.5;
    horizon = 260.0;
    failures;
    failure_rate = 0.04;
    down_mean = 6.0;
    partitions = false;
    partition_rate = 0.01;
    partition_duration = 8.0;
    total_failures;
    total_failure_rate = 0.004;
    total_down_mean = 4.0;
    faults = supported_faults;
    weaken_read = None;
    weaken_write = None;
    settle = None;
    readback = true;
    batch = 1;
    crash_writes = false;
    crash_write_rate = 0.02;
    bitrot = false;
    bitrot_rate = 0.03;
    disk_replace = false;
    disk_replace_rate = 0.005;
    media_down_mean = 6.0;
    service = None;
    robustness = Blockrep.Robustness.off;
    slow_sites = false;
    slow_rate = 0.02;
    slow_factor = 10.0;
    slow_mean = 12.0;
    bursts = false;
    burst_rate = 0.015;
    burst_ops = 15;
    queue_floods = false;
    flood_rate = 0.015;
    flood_count = 48;
    encoded = false;
    wire_corrupt_links = false;
    wire_corrupt_rate = 0.01;
    wire_corrupt_mean = 10.0;
  }

let media_env ?seed scheme =
  (* The storage-fault envelope per scheme.  Crash-torn writes and disk
     replacement take a site down; under the one-round voting write any
     site failure is already outside that scheme's envelope (see
     [default_env]), so the voting flavours get latent bitrot only —
     every copy stays mounted, quarantine + quorum re-pull heal it. *)
  let base = default_env ?seed scheme in
  match scheme with
  | Types.Available_copy | Types.Naive_available_copy ->
      { base with crash_writes = true; bitrot = true; disk_replace = true }
  | Types.Voting | Types.Dynamic_voting -> { base with bitrot = true }

let overload_env ?seed scheme =
  (* The overload + gray-failure envelope: every site runs the calibrated
     service model and the client stack has deadlines, hedged reads,
     breakers and admission on.  Slow sites, client bursts and queue
     floods never take a site down or lose an acknowledged message, so
     they are inside {e every} scheme's correctness envelope (including
     voting, whose envelope excludes site failures) — the oracle must stay
     silent while p99 degrades. *)
  let base = default_env ?seed scheme in
  {
    base with
    failures = false;
    total_failures = false;
    service = Some Net.Service_model.default;
    robustness =
      {
        Blockrep.Robustness.deadlines = true;
        op_budget = None;
        hedge = Some { Blockrep.Robustness.quantile = 0.9; floor = 1.0 };
        breaker = Some { Blockrep.Robustness.threshold = 5; cooldown = 30.0 };
        admission = Some 64;
      };
    slow_sites = true;
    bursts = true;
    queue_floods = true;
  }

let wire_env ?seed scheme =
  (* The hostile-bytes envelope: frames cross the network encoded and the
     injector damages their bytes at the [supported_corruption] ambient
     rates on top of the supported delay/duplicate/reorder faults.  The
     hardened ingress (CRC/shape rejection + bounded link-layer
     redelivery) must absorb all of it, so byte damage is inside {e
     every} scheme's correctness envelope — the oracle must stay silent
     and every injected corruption must be accounted for by the ingress
     conservation identity (checked as an invariant, not assumed). *)
  let base = default_env ?seed scheme in
  {
    base with
    encoded = true;
    faults = { base.faults with Net.Faults.corruption = supported_corruption };
  }

(* --- schedules --- *)

let exp_sample rng mean = -.mean *. log (Prng.float_pos rng)

let site_failure_events env rng site =
  let events = ref [] in
  let t = ref (exp_sample rng (1.0 /. env.failure_rate)) in
  while !t <= env.horizon do
    events := (!t, Fail site) :: !events;
    t := !t +. exp_sample rng env.down_mean;
    if !t <= env.horizon then events := (!t, Repair site) :: !events;
    t := !t +. exp_sample rng (1.0 /. env.failure_rate)
  done;
  List.rev !events

let partition_events env rng =
  let events = ref [] in
  let t = ref (exp_sample rng (1.0 /. env.partition_rate)) in
  while !t <= env.horizon do
    (* a random two-way split with both sides nonempty *)
    let side = Array.init env.n_sites (fun _ -> Prng.bool rng) in
    let all_same = Array.for_all (fun b -> b = side.(0)) side in
    if all_same then side.(Prng.int rng env.n_sites) <- not side.(0);
    let left = ref [] and right = ref [] in
    Array.iteri (fun i b -> if b then left := i :: !left else right := i :: !right) side;
    events := (!t, Partition [ List.rev !left; List.rev !right ]) :: !events;
    let heal_t = !t +. exp_sample rng env.partition_duration in
    if heal_t <= env.horizon then events := (heal_t, Heal) :: !events;
    t := heal_t +. exp_sample rng (1.0 /. env.partition_rate)
  done;
  List.rev !events

let total_failure_events env rng =
  let events = ref [] in
  let t = ref (exp_sample rng (1.0 /. env.total_failure_rate)) in
  while !t <= env.horizon do
    let last_repair = ref !t in
    for site = 0 to env.n_sites - 1 do
      (* stagger the crashes slightly so there is a genuine "last site to
         fail", then repair each site independently *)
      let fail_t = !t +. (0.3 *. Prng.float rng) in
      events := (fail_t, Fail site) :: !events;
      let repair_t = fail_t +. 0.5 +. exp_sample rng env.total_down_mean in
      if repair_t <= env.horizon then begin
        events := (repair_t, Repair site) :: !events;
        last_repair := Float.max !last_repair repair_t
      end
    done;
    t := !last_repair +. exp_sample rng (1.0 /. env.total_failure_rate)
  done;
  List.rev !events

let crash_write_events env rng =
  (* Crash-torn writes: the site loses power mid-write; the next crash is
     armed to tear the apply of its most recent journaled write, and the
     site is repaired a while later (the scrub replays the intention). *)
  let events = ref [] in
  let t = ref (exp_sample rng (1.0 /. env.crash_write_rate)) in
  while !t <= env.horizon do
    let site = Prng.int rng env.n_sites in
    events := (!t, Crash_torn site) :: !events;
    let repair_t = !t +. 0.5 +. exp_sample rng env.media_down_mean in
    if repair_t <= env.horizon then events := (repair_t, Repair site) :: !events;
    t := !t +. exp_sample rng (1.0 /. env.crash_write_rate)
  done;
  List.rev !events

let bitrot_events env rng =
  let events = ref [] in
  let t = ref (exp_sample rng (1.0 /. env.bitrot_rate)) in
  while !t <= env.horizon do
    events := (!t, Bitrot (Prng.int rng env.n_sites, Prng.int rng env.n_blocks)) :: !events;
    t := !t +. exp_sample rng (1.0 /. env.bitrot_rate)
  done;
  List.rev !events

let disk_replace_events env rng =
  let events = ref [] in
  let t = ref (exp_sample rng (1.0 /. env.disk_replace_rate)) in
  while !t <= env.horizon do
    let site = Prng.int rng env.n_sites in
    events := (!t, Disk_replace site) :: !events;
    let repair_t = !t +. 0.5 +. exp_sample rng env.media_down_mean in
    if repair_t <= env.horizon then events := (repair_t, Repair site) :: !events;
    t := !t +. exp_sample rng (1.0 /. env.disk_replace_rate)
  done;
  List.rev !events

let slow_site_events env rng =
  (* Gray failure: a random site turns [slow_factor]x slow for an
     exponential episode, then recovers to full speed (factor 1.0). *)
  let events = ref [] in
  let t = ref (exp_sample rng (1.0 /. env.slow_rate)) in
  while !t <= env.horizon do
    let site = Prng.int rng env.n_sites in
    events := (!t, Slow_site (site, env.slow_factor)) :: !events;
    let recover_t = !t +. exp_sample rng env.slow_mean in
    if recover_t <= env.horizon then events := (recover_t, Slow_site (site, 1.0)) :: !events;
    t := recover_t +. exp_sample rng (1.0 /. env.slow_rate)
  done;
  List.rev !events

let burst_events env rng =
  let events = ref [] in
  let t = ref (exp_sample rng (1.0 /. env.burst_rate)) in
  while !t <= env.horizon do
    events := (!t, Burst env.burst_ops) :: !events;
    t := !t +. exp_sample rng (1.0 /. env.burst_rate)
  done;
  List.rev !events

let queue_flood_events env rng =
  let events = ref [] in
  let t = ref (exp_sample rng (1.0 /. env.flood_rate)) in
  while !t <= env.horizon do
    events := (!t, Queue_flood (Prng.int rng env.n_sites, env.flood_count)) :: !events;
    t := !t +. exp_sample rng (1.0 /. env.flood_rate)
  done;
  List.rev !events

let wire_corrupt_events env rng =
  (* A persistent corruptor episode: one directed link flips every frame
     it carries until healed.  Paired with its heal at an exponential
     episode length, like slow-site episodes. *)
  let events = ref [] in
  let t = ref (exp_sample rng (1.0 /. env.wire_corrupt_rate)) in
  while !t <= env.horizon do
    let from = Prng.int rng env.n_sites in
    let dst = (from + 1 + Prng.int rng (env.n_sites - 1)) mod env.n_sites in
    events := (!t, Wire_corrupt (from, dst)) :: !events;
    let heal_t = !t +. exp_sample rng env.wire_corrupt_mean in
    if heal_t <= env.horizon then events := (heal_t, Wire_heal (from, dst)) :: !events;
    t := heal_t +. exp_sample rng (1.0 /. env.wire_corrupt_rate)
  done;
  List.rev !events

let generate_schedule env =
  let events = ref [] in
  if env.failures then begin
    let frng = Prng.create (env.seed lxor 0x6661696c) in
    for site = 0 to env.n_sites - 1 do
      let rng = Prng.split frng in
      events := !events @ site_failure_events env rng site
    done
  end;
  if env.partitions then
    events := !events @ partition_events env (Prng.create (env.seed lxor 0x70617274));
  if env.total_failures then
    events := !events @ total_failure_events env (Prng.create (env.seed lxor 0x746f7461));
  if env.crash_writes then
    events := !events @ crash_write_events env (Prng.create (env.seed lxor 0x746f726e));
  if env.bitrot then events := !events @ bitrot_events env (Prng.create (env.seed lxor 0x726f74));
  if env.disk_replace then
    events := !events @ disk_replace_events env (Prng.create (env.seed lxor 0x7265706c));
  if env.slow_sites then
    events := !events @ slow_site_events env (Prng.create (env.seed lxor 0x736c6f77));
  if env.bursts then events := !events @ burst_events env (Prng.create (env.seed lxor 0x62757273));
  if env.queue_floods then
    events := !events @ queue_flood_events env (Prng.create (env.seed lxor 0x666c6f64));
  if env.wire_corrupt_links then
    events := !events @ wire_corrupt_events env (Prng.create (env.seed lxor 0x77697265));
  List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) !events

(* --- serialization --- *)

let pp_event ppf (time, ev) =
  match ev with
  | Fail s -> Format.fprintf ppf "@%.4f fail %d" time s
  | Repair s -> Format.fprintf ppf "@%.4f repair %d" time s
  | Partition groups ->
      Format.fprintf ppf "@%.4f partition %s" time
        (String.concat " | "
           (List.map (fun g -> String.concat " " (List.map string_of_int g)) groups))
  | Heal -> Format.fprintf ppf "@%.4f heal" time
  | Crash_torn s -> Format.fprintf ppf "@%.4f crash-torn %d" time s
  | Bitrot (s, b) -> Format.fprintf ppf "@%.4f bitrot %d %d" time s b
  | Disk_replace s -> Format.fprintf ppf "@%.4f disk-replace %d" time s
  | Slow_site (s, f) -> Format.fprintf ppf "@%.4f slow-site %d %.4f" time s f
  | Burst n -> Format.fprintf ppf "@%.4f burst %d" time n
  | Queue_flood (s, n) -> Format.fprintf ppf "@%.4f queue-flood %d %d" time s n
  | Wire_corrupt (s, d) -> Format.fprintf ppf "@%.4f wire-corrupt %d %d" time s d
  | Wire_heal (s, d) -> Format.fprintf ppf "@%.4f wire-heal %d %d" time s d

let pp_schedule ppf schedule =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_event ppf schedule

let schedule_to_string schedule =
  String.concat "\n" (List.map (Format.asprintf "%a" pp_event) schedule)

let schedule_of_string text =
  let parse_line i line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then Ok None
    else
      let fail () = Error (Printf.sprintf "line %d: cannot parse %S" (i + 1) line) in
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | time :: rest when String.length time > 1 && time.[0] = '@' -> (
          match float_of_string_opt (String.sub time 1 (String.length time - 1)) with
          | None -> fail ()
          | Some t -> (
              match rest with
              | [ "fail"; s ] -> (
                  match int_of_string_opt s with Some s -> Ok (Some (t, Fail s)) | None -> fail ())
              | [ "repair"; s ] -> (
                  match int_of_string_opt s with Some s -> Ok (Some (t, Repair s)) | None -> fail ())
              | [ "heal" ] -> Ok (Some (t, Heal))
              | [ "crash-torn"; s ] -> (
                  match int_of_string_opt s with
                  | Some s -> Ok (Some (t, Crash_torn s))
                  | None -> fail ())
              | [ "bitrot"; s; b ] -> (
                  match (int_of_string_opt s, int_of_string_opt b) with
                  | Some s, Some b -> Ok (Some (t, Bitrot (s, b)))
                  | _ -> fail ())
              | [ "disk-replace"; s ] -> (
                  match int_of_string_opt s with
                  | Some s -> Ok (Some (t, Disk_replace s))
                  | None -> fail ())
              | [ "slow-site"; s; f ] -> (
                  match (int_of_string_opt s, float_of_string_opt f) with
                  | Some s, Some f -> Ok (Some (t, Slow_site (s, f)))
                  | _ -> fail ())
              | [ "burst"; n ] -> (
                  match int_of_string_opt n with Some n -> Ok (Some (t, Burst n)) | None -> fail ())
              | [ "queue-flood"; s; n ] -> (
                  match (int_of_string_opt s, int_of_string_opt n) with
                  | Some s, Some n -> Ok (Some (t, Queue_flood (s, n)))
                  | _ -> fail ())
              | [ "wire-corrupt"; s; d ] -> (
                  match (int_of_string_opt s, int_of_string_opt d) with
                  | Some s, Some d -> Ok (Some (t, Wire_corrupt (s, d)))
                  | _ -> fail ())
              | [ "wire-heal"; s; d ] -> (
                  match (int_of_string_opt s, int_of_string_opt d) with
                  | Some s, Some d -> Ok (Some (t, Wire_heal (s, d)))
                  | _ -> fail ())
              | "partition" :: groups -> (
                  let rec split acc cur = function
                    | [] -> List.rev (List.rev cur :: acc)
                    | "|" :: rest -> split (List.rev cur :: acc) [] rest
                    | s :: rest -> (
                        match int_of_string_opt s with
                        | Some s -> split acc (s :: cur) rest
                        | None -> [])
                  in
                  match split [] [] groups with
                  | [] -> fail ()
                  | gs when List.exists (fun g -> g = []) gs -> fail ()
                  | gs -> Ok (Some (t, Partition gs)))
              | _ -> fail ()))
      | _ -> fail ()
  in
  let lines = String.split_on_char '\n' text in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line i line with
        | Error e -> Error e
        | Ok None -> go (i + 1) acc rest
        | Ok (Some ev) -> go (i + 1) (ev :: acc) rest)
  in
  go 0 [] lines

(* --- running --- *)

type outcome = {
  seed : int;
  schedule : schedule;
  history : History.t;
  oracle : Violation.t list;
  invariants_mid : Violation.t list;
  invariants_final : Violation.t list;
  ops_ok : int;
  ops_failed : int;
  faults_injected : int;
  storage : Blockdev.Durable_store.counters;
  end_time : float;
}

let violations o = o.oracle @ o.invariants_mid @ o.invariants_final
let passed o = violations o = []

let cluster_of_env env =
  let quorum =
    match (env.weaken_read, env.weaken_write) with
    | None, None -> None
    | r, w ->
        let majority = (env.n_sites / 2) + 1 in
        Some
          (Blockrep.Quorum.unsafe
             ~weights:(Array.make env.n_sites 1)
             ~read_threshold:(Option.value r ~default:majority)
             ~write_threshold:(Option.value w ~default:majority))
  in
  Cluster.create
    (Blockrep.Config.make_exn ~scheme:env.scheme ~n_sites:env.n_sites ~n_blocks:env.n_blocks
       ?quorum ~seed:env.seed ~fault_profile:env.faults ?service:env.service
       ~robustness:env.robustness ~encoded_delivery:env.encoded ())

(* Maskability guards for media faults.  The paper's disks are fail-stop;
   a latent fault that destroys the {e only} current copy of a block is
   unmaskable by any replication protocol, so the generator's random
   injections are filtered at apply time to those a correct system must
   survive: some other mounted site still holds a verified copy at least
   as new as whatever the fault wipes out.  (Crash-torn writes need no
   guard: the committed intention journal survives the tear and the
   recovery scrub replays it, so even a sole survivor loses nothing.) *)

let covered_elsewhere cluster ~victim ~block ~version =
  version = 0
  ||
  let n = Cluster.n_sites cluster in
  let rec check j =
    j < n
    && ((j <> victim
        && Cluster.site_state cluster j = Types.Available
        && Cluster.checksum_ok cluster ~site:j ~block
        && Cluster.effective_version cluster ~site:j ~block >= version)
       || check (j + 1))
  in
  check 0

let stored_version cluster s block =
  Store.version (Runtime.site (Cluster.runtime cluster) s).Runtime.store block

let apply_event cluster = function
  | Fail s -> if Cluster.site_state cluster s <> Types.Failed then Cluster.fail_site cluster s
  | Repair s -> if Cluster.site_state cluster s = Types.Failed then Cluster.repair_site cluster s
  | Partition groups -> Cluster.partition cluster groups
  | Heal -> Cluster.heal cluster
  | Crash_torn s ->
      if Cluster.site_state cluster s = Types.Available then begin
        Cluster.arm_torn_write cluster s;
        Cluster.fail_site cluster s
      end
  | Bitrot (s, b) ->
      if
        Cluster.site_state cluster s <> Types.Failed
        && covered_elsewhere cluster ~victim:s ~block:b ~version:(stored_version cluster s b)
      then Cluster.inject_bitrot cluster ~site:s ~block:b
  | Disk_replace s ->
      let n_blocks = Cluster.n_blocks cluster in
      let rec all_covered b =
        b >= n_blocks
        || (covered_elsewhere cluster ~victim:s ~block:b ~version:(stored_version cluster s b)
           && all_covered (b + 1))
      in
      if all_covered 0 then Cluster.replace_disk cluster s
  | Slow_site (s, f) -> Cluster.set_rate_factor cluster s f
  | Queue_flood (s, n) -> Cluster.flood_site cluster s ~count:n
  | Wire_corrupt (s, d) -> Cluster.corrupt_link cluster ~from:s ~dst:d
  | Wire_heal (s, d) -> Cluster.heal_link cluster ~from:s ~dst:d
  | Burst _ -> () (* handled by the workload loop, not the cluster *)

let run_against env ~cluster ~schedule =
  let engine = Cluster.engine cluster in
  let rt = Cluster.runtime cluster in
  let n_blocks = Cluster.n_blocks cluster in
  (* Oracle baseline: the newest committed state per block at entry, so a
     used cluster's contents are legal first reads. *)
  let baseline_tbl =
    Array.init n_blocks (fun block ->
        let best = ref (0, Blockdev.Block.zero) in
        Array.iter
          (fun (s : Runtime.site) ->
            (* Verified copies only: a quarantined block must not seed the
               oracle's notion of committed state. *)
            match Blockdev.Durable_store.read_verified s.durable block with
            | Some (data, v) -> if v > fst !best then best := (v, data)
            | None -> ())
          (Runtime.sites rt);
        !best)
  in
  let baseline block = baseline_tbl.(block) in
  let device = Blockrep.Reliable_device.create ?settle:env.settle cluster in
  let history = History.create () in
  History.attach_stub history (Blockrep.Reliable_device.stub device);
  (* No coalescing timer here: a timer can close the window in the middle
     of another client operation's engine drive, and the nested batched
     write would make the recorded history non-sequential (the oracle
     judges single-client histories).  The loop below commits the dirty
     set explicitly once [batch] writes have been absorbed, which is the
     same group size with deterministic, never-nested flush points. *)
  let cache =
    if env.batch <= 1 then None
    else Some (Wb_cache.create ~policy:Fs.Buffer_cache.Write_back ~capacity:n_blocks device)
  in
  let in_op = ref false in
  let flush_cache () =
    match cache with
    | None -> ()
    | Some c ->
        (* Never flush from inside a client operation (a schedule event
           can fire while one is driving the engine): the nested write
           would be recorded before the in-flight operation responds. *)
        if not !in_op then ignore (Wb_cache.flush c : bool)
  in
  let now0 = Sim.Engine.now engine in
  (* Bursts ask the workload loop to skip its think time for the next [n]
     operations — closed-loop arrival pressure, no cluster state touched. *)
  let burst_credit = ref 0 in
  let handles =
    List.filter_map
      (fun (time, ev) ->
        if time < now0 then None
        else
          Some
            (Sim.Engine.schedule_at engine ~time (fun () ->
                 (* Flush-on-failover: commit the dirty set before the
                    fault lands (reentrant flushes are ignored by the
                    cache, so a flush already in flight is safe). *)
                 (match ev with
                 | Fail _ | Partition _ | Crash_torn _ | Disk_replace _ -> flush_cache ()
                 | Repair _ | Heal | Bitrot _ | Slow_site _ | Burst _ | Queue_flood _
                 | Wire_corrupt _ | Wire_heal _ ->
                     ());
                 (match ev with Burst n -> burst_credit := !burst_credit + n | _ -> ());
                 apply_event cluster ev)))
      schedule
  in
  let gap_rng = Prng.create (env.seed lxor 0x676170) in
  let gen =
    Workload.Access_gen.create
      ~rng:(Prng.create (env.seed lxor 0x6f7073))
      ~n_blocks ~reads_per_write:env.reads_per_write
      ~payload_seed:(Printf.sprintf "chaos-%d" env.seed)
      ()
  in
  let ops_ok = ref 0 and ops_failed = ref 0 in
  for _ = 1 to env.ops do
    if !burst_credit > 0 then decr burst_credit
    else Cluster.run_until cluster (Sim.Engine.now engine +. exp_sample gap_rng env.mean_gap);
    in_op := true;
    (match Workload.Access_gen.next gen with
    | Workload.Access_gen.Read block -> (
        let answer =
          match cache with
          | Some c -> Wb_cache.read_block c block
          | None -> Blockrep.Reliable_device.read_block device block
        in
        match answer with Some _ -> incr ops_ok | None -> incr ops_failed)
    | Workload.Access_gen.Write (block, data) ->
        let ok =
          match cache with
          | Some c -> Wb_cache.write_block c block data
          | None -> Blockrep.Reliable_device.write_block device block data
        in
        if ok then incr ops_ok else incr ops_failed);
    in_op := false;
    (* Group commit: the dirty set rides one batched request as soon as
       it reaches the configured group size. *)
    match cache with
    | Some c when Wb_cache.dirty_blocks c >= env.batch -> ignore (Wb_cache.flush c : bool)
    | Some _ | None -> ()
  done;
  (* Stop injecting, commit anything still buffered, drain, and look at
     the state the run ended in. *)
  List.iter (Sim.Engine.cancel engine) handles;
  flush_cache ();
  Cluster.settle cluster;
  let invariants_mid = Invariant.scan cluster in
  (* Full recovery: heal, repair everyone, let recovery protocols finish. *)
  Cluster.heal cluster;
  for site = 0 to Cluster.n_sites cluster - 1 do
    if Cluster.site_state cluster site = Types.Failed then Cluster.repair_site cluster site
  done;
  Cluster.settle cluster;
  (* A flush during the run may have failed with the quorum down; with
     everything repaired the leftovers must commit. *)
  flush_cache ();
  Cluster.settle cluster;
  let invariants_final = Invariant.scan cluster in
  (* The ingress conservation identity is checked, not assumed: every
     corruption the injector counted must have been classified exactly
     one way (decoder reject, quarantine discard, or survived decode). *)
  let invariants_final =
    if Cluster.corruption_conserved cluster then invariants_final
    else
      invariants_final
      @ [
          Violation.make ~code:"wire-unconserved" ~time:(Sim.Engine.now engine)
            (Printf.sprintf
               "corrupted deliveries %d <> rejected %d + quarantined %d + survived %d"
               (Cluster.corrupted_deliveries cluster)
               (Cluster.corrupt_rejected cluster)
               (Cluster.corrupt_quarantined cluster)
               (Cluster.corrupt_survived cluster));
        ]
  in
  if env.readback then
    for block = 0 to n_blocks - 1 do
      ignore (Blockrep.Reliable_device.read_block device block)
    done;
  let oracle = Oracle.check ~baseline history in
  {
    seed = env.seed;
    schedule;
    history;
    oracle;
    invariants_mid;
    invariants_final;
    ops_ok = !ops_ok;
    ops_failed = !ops_failed;
    faults_injected =
      (match Cluster.faults cluster with None -> 0 | Some f -> Net.Faults.total_injected f);
    storage = Cluster.storage_counters cluster;
    end_time = Sim.Engine.now engine;
  }

let run ?schedule env =
  let schedule = match schedule with Some s -> s | None -> generate_schedule env in
  run_against env ~cluster:(cluster_of_env env) ~schedule

(* --- shrinking --- *)

let shrink ?(max_runs = 300) env schedule =
  let runs = ref 0 in
  let try_run sched =
    incr runs;
    run_against env ~cluster:(cluster_of_env env) ~schedule:sched
  in
  let failing o = not (passed o) in
  let first = try_run schedule in
  if not (failing first) then (schedule, first)
  else begin
    let best = ref (Array.of_list schedule) in
    let best_outcome = ref first in
    let chunk = ref (max 1 ((Array.length !best + 1) / 2)) in
    while !chunk >= 1 && !runs < max_runs do
      let progressed = ref false in
      let i = ref 0 in
      while !i < Array.length !best && !runs < max_runs do
        let len = Array.length !best in
        let hi = min len (!i + !chunk) in
        let candidate = Array.append (Array.sub !best 0 !i) (Array.sub !best hi (len - hi)) in
        if Array.length candidate < len then begin
          let o = try_run (Array.to_list candidate) in
          if failing o then begin
            best := candidate;
            best_outcome := o;
            progressed := true
            (* keep [i]: the next chunk slid into place *)
          end
          else i := !i + !chunk
        end
        else i := !i + !chunk
      done;
      if not !progressed then if !chunk = 1 then chunk := 0 else chunk := !chunk / 2
    done;
    (Array.to_list !best, !best_outcome)
  end

(* --- sweeping --- *)

type run_summary = {
  run_seed : int;
  run_passed : bool;
  run_violations : int;
  run_ops_ok : int;
  run_ops_failed : int;
  run_faults : int;
  run_storage_faults : int;
}

type sweep_result = {
  sweep_env : env;
  summaries : run_summary list;
  failing : int list;
  first_failure : (int * outcome) option;
  shrunk : (schedule * outcome) option;
}

let sweep ?(shrink_failures = true) ?max_shrink_runs ?(shards = 1) env ~seeds =
  (* Each seed's run builds its own cluster, schedule and PRNG streams
     from [{env with seed}] alone, so seeds are the sweep's shard units:
     [shards] picks only how many domains execute them, and the verdict
     merge below walks the results in seed-list order either way. *)
  let runs =
    Sim.Shard_engine.map_list ~shards seeds (fun seed ->
        let o = run { env with seed } in
        let n_violations = List.length (violations o) in
        ( {
            run_seed = seed;
            run_passed = n_violations = 0;
            run_violations = n_violations;
            run_ops_ok = o.ops_ok;
            run_ops_failed = o.ops_failed;
            run_faults = o.faults_injected;
            run_storage_faults =
              o.storage.Blockdev.Durable_store.torn_writes
              + o.storage.Blockdev.Durable_store.bitrot_injected
              + o.storage.Blockdev.Durable_store.disk_replacements;
          },
          o ))
  in
  let summaries = List.map fst runs in
  let first_failure =
    List.find_map (fun (s, o) -> if s.run_passed then None else Some (s.run_seed, o)) runs
  in
  let failing = List.filter_map (fun s -> if s.run_passed then None else Some s.run_seed) summaries in
  let shrunk =
    match first_failure with
    | Some (seed, o) when shrink_failures ->
        Some (shrink ?max_runs:max_shrink_runs { env with seed } o.schedule)
    | _ -> None
  in
  { sweep_env = env; summaries; failing; first_failure; shrunk }
