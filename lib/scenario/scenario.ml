type action =
  | Fail of int
  | Repair of int
  | Partition of int list list
  | Heal
  | Crash_torn of int
  | Bitrot of int * int
  | Disk_replace of int
  | Slow_site of int * float
  | Burst of int * int
  | Queue_flood of int * int
  | Write of int * int * string
  | Read of int * int
  | Expect_read of int * int * string
  | Expect_read_fail of int * int
  | Expect_write_fail of int * int
  | Expect_state of int * Blockrep.Types.site_state
  | Expect_available of bool
  | Expect_consistent
  | Expect_inconsistent
  | Check_invariants

type event = { time : float; line : int; action : action }

type header = {
  mutable scheme : Blockrep.Types.scheme option;
  mutable sites : int option;
  mutable blocks : int;
  mutable seed : int;
  mutable latency : float option;
  mutable witnesses : int list;
  mutable track_liveness : bool;
  mutable horizon : float option;
  mutable faults : Net.Faults.profile;
  mutable service : bool;
}

type t = { config : Blockrep.Config.t; horizon : float option; events : event list }

let state_of_string = function
  | "failed" -> Some Blockrep.Types.Failed
  | "comatose" -> Some Blockrep.Types.Comatose
  | "available" -> Some Blockrep.Types.Available
  | _ -> None

type outcome = {
  passed : bool;
  failures : string list;
  events_run : int;
  cluster : Blockrep.Cluster.t;
}

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let fresh_header () =
  {
    scheme = None;
    sites = None;
    blocks = 8;
    seed = 42;
    latency = None;
    witnesses = [];
    track_liveness = false;
    horizon = None;
    faults = Net.Faults.pristine;
    service = false;
  }

let scheme_of_string = function
  | "voting" -> Some Blockrep.Types.Voting
  | "ac" | "available-copy" -> Some Blockrep.Types.Available_copy
  | "nac" | "naive" | "naive-available-copy" -> Some Blockrep.Types.Naive_available_copy
  | "dynamic" | "dynamic-voting" -> Some Blockrep.Types.Dynamic_voting
  | _ -> None

let split_words s =
  String.split_on_char ' ' s |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let strip_comment line =
  match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line

let parse_int ~line what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "line %d: bad %s %S" line what s)

let parse_float ~line what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "line %d: bad %s %S" line what s)

let ( let* ) = Result.bind

let parse_groups ~line words =
  (* partition syntax: site ids separated by spaces, groups by '|'. *)
  let rec go current acc = function
    | [] -> Ok (List.rev (List.rev current :: acc))
    | "|" :: rest -> go [] (List.rev current :: acc) rest
    | w :: rest ->
        let* site = parse_int ~line "site" w in
        go (site :: current) acc rest
  in
  go [] [] words

let parse_action ~line words =
  match words with
  | [ "fail"; s ] ->
      let* s = parse_int ~line "site" s in
      Ok (Fail s)
  | [ "repair"; s ] ->
      let* s = parse_int ~line "site" s in
      Ok (Repair s)
  | "partition" :: rest ->
      let* groups = parse_groups ~line rest in
      Ok (Partition groups)
  | [ "heal" ] -> Ok Heal
  | [ "crash-torn"; s ] ->
      let* s = parse_int ~line "site" s in
      Ok (Crash_torn s)
  | [ "bitrot"; s; b ] ->
      let* s = parse_int ~line "site" s in
      let* b = parse_int ~line "block" b in
      Ok (Bitrot (s, b))
  | [ "disk-replace"; s ] ->
      let* s = parse_int ~line "site" s in
      Ok (Disk_replace s)
  | [ "slow-site"; s; f ] ->
      let* s = parse_int ~line "site" s in
      let* f = parse_float ~line "rate factor" f in
      Ok (Slow_site (s, f))
  | [ "burst"; s; n ] ->
      let* s = parse_int ~line "site" s in
      let* n = parse_int ~line "burst size" n in
      Ok (Burst (s, n))
  | [ "queue-flood"; s; n ] ->
      let* s = parse_int ~line "site" s in
      let* n = parse_int ~line "flood count" n in
      Ok (Queue_flood (s, n))
  | [ "write"; s; b; payload ] ->
      let* s = parse_int ~line "site" s in
      let* b = parse_int ~line "block" b in
      Ok (Write (s, b, payload))
  | [ "read"; s; b ] ->
      let* s = parse_int ~line "site" s in
      let* b = parse_int ~line "block" b in
      Ok (Read (s, b))
  | [ "expect-read"; s; b; payload ] ->
      let* s = parse_int ~line "site" s in
      let* b = parse_int ~line "block" b in
      Ok (Expect_read (s, b, payload))
  | [ "expect-read-fail"; s; b ] ->
      let* s = parse_int ~line "site" s in
      let* b = parse_int ~line "block" b in
      Ok (Expect_read_fail (s, b))
  | [ "expect-write-fail"; s; b ] ->
      let* s = parse_int ~line "site" s in
      let* b = parse_int ~line "block" b in
      Ok (Expect_write_fail (s, b))
  | [ "expect-state"; s; state ] -> (
      let* s = parse_int ~line "site" s in
      match state_of_string state with
      | Some st -> Ok (Expect_state (s, st))
      | None -> Error (Printf.sprintf "line %d: unknown state %S" line state))
  | [ "expect-available"; b ] -> (
      match bool_of_string_opt b with
      | Some b -> Ok (Expect_available b)
      | None -> Error (Printf.sprintf "line %d: expect-available wants true/false" line))
  | [ "expect-consistent" ] -> Ok Expect_consistent
  | [ "expect-inconsistent" ] -> Ok Expect_inconsistent
  | [ "check-invariants" ] -> Ok Check_invariants
  | cmd :: _ -> Error (Printf.sprintf "line %d: unknown command %S" line cmd)
  | [] -> Error (Printf.sprintf "line %d: empty event" line)

let parse_header_line header ~line words =
  match words with
  | [ "scheme"; s ] -> (
      match scheme_of_string s with
      | Some scheme ->
          header.scheme <- Some scheme;
          Ok ()
      | None -> Error (Printf.sprintf "line %d: unknown scheme %S" line s))
  | [ "sites"; n ] ->
      let* n = parse_int ~line "site count" n in
      header.sites <- Some n;
      Ok ()
  | [ "blocks"; n ] ->
      let* n = parse_int ~line "block count" n in
      header.blocks <- n;
      Ok ()
  | [ "seed"; n ] ->
      let* n = parse_int ~line "seed" n in
      header.seed <- n;
      Ok ()
  | [ "latency"; x ] ->
      let* x = parse_float ~line "latency" x in
      header.latency <- Some x;
      Ok ()
  | "witnesses" :: rest ->
      let* ws =
        List.fold_left
          (fun acc w ->
            let* acc = acc in
            let* v = parse_int ~line "witness" w in
            Ok (v :: acc))
          (Ok []) rest
      in
      header.witnesses <- List.rev ws;
      Ok ()
  | [ "track-liveness"; b ] -> (
      match bool_of_string_opt b with
      | Some b ->
          header.track_liveness <- b;
          Ok ()
      | None -> Error (Printf.sprintf "line %d: track-liveness wants true/false" line))
  | [ "horizon"; x ] ->
      let* x = parse_float ~line "horizon" x in
      if not (Float.is_finite x && x >= 0.0) then Error (Printf.sprintf "line %d: bad horizon %g" line x)
      else begin
        header.horizon <- Some x;
        Ok ()
      end
  | [ "fault-drop"; x ] ->
      let* x = parse_float ~line "fault-drop" x in
      header.faults <- { header.faults with Net.Faults.drop = x };
      Ok ()
  | [ "fault-duplicate"; x ] ->
      let* x = parse_float ~line "fault-duplicate" x in
      header.faults <- { header.faults with Net.Faults.duplicate = x };
      Ok ()
  | [ "fault-reorder"; x ] ->
      let* x = parse_float ~line "fault-reorder" x in
      header.faults <- { header.faults with Net.Faults.reorder = x };
      Ok ()
  | [ "fault-jitter"; x ] ->
      let* x = parse_float ~line "fault-jitter" x in
      header.faults <- { header.faults with Net.Faults.jitter = Util.Dist.Uniform (0.0, x) };
      Ok ()
  | [ "fault-delay"; x ] ->
      let* x = parse_float ~line "fault-delay" x in
      header.faults <- { header.faults with Net.Faults.extra_delay = x };
      Ok ()
  | [ "service-model"; b ] -> (
      match bool_of_string_opt b with
      | Some b ->
          header.service <- b;
          Ok ()
      | None -> Error (Printf.sprintf "line %d: service-model wants true/false" line))
  | key :: _ -> Error (Printf.sprintf "line %d: unknown directive %S" line key)
  | [] -> Ok ()

(* Every id an event names must exist in the header's cluster, and every
   argument must be one the cluster accepts, so [run] never raises on a
   parsed scenario. *)
let check_event (config : Blockrep.Config.t) ev =
  let sites, blocks =
    match ev.action with
    | Heal | Expect_available _ | Expect_consistent | Expect_inconsistent | Check_invariants -> ([], [])
    | Fail s
    | Repair s
    | Crash_torn s
    | Disk_replace s
    | Expect_state (s, _)
    | Slow_site (s, _)
    | Burst (s, _)
    | Queue_flood (s, _) ->
        ([ s ], [])
    | Partition groups -> (List.concat groups, [])
    | Bitrot (s, b)
    | Write (s, b, _)
    | Read (s, b)
    | Expect_read (s, b, _)
    | Expect_read_fail (s, b)
    | Expect_write_fail (s, b) ->
        ([ s ], [ b ])
  in
  let outside n = List.find_opt (fun i -> i < 0 || i >= n) in
  let fail fmt = Printf.ksprintf (fun msg -> Error (Printf.sprintf "line %d: %s" ev.line msg)) fmt in
  match (outside config.n_sites sites, outside config.n_blocks blocks, ev.action) with
  | Some s, _, _ -> fail "site %d out of range (%d sites)" s config.n_sites
  | None, Some b, _ -> fail "block %d out of range (%d blocks)" b config.n_blocks
  | _, _, Slow_site (_, f) when not (Float.is_finite f && f > 0.0) ->
      fail "rate factor %g must be positive" f
  | _, _, (Burst (_, n) | Queue_flood (_, n)) when n < 0 -> fail "count %d is negative" n
  | _ when not (Float.is_finite ev.time && ev.time >= 0.0) -> fail "bad time %g" ev.time
  | _ -> Ok ()

let parse text =
  let header = fresh_header () in
  let lines = String.split_on_char '\n' text in
  let rec go line_no events = function
    | [] -> Ok (List.rev events)
    | raw :: rest -> (
        let words = split_words (strip_comment raw) in
        match words with
        | [] -> go (line_no + 1) events rest
        | at :: cmd when String.length at > 0 && at.[0] = '@' ->
            let* time = parse_float ~line:line_no "time" (String.sub at 1 (String.length at - 1)) in
            let* action = parse_action ~line:line_no cmd in
            go (line_no + 1) ({ time; line = line_no; action } :: events) rest
        | directive -> (
            match parse_header_line header ~line:line_no directive with
            | Ok () -> go (line_no + 1) events rest
            | Error _ as err -> err))
  in
  let* events = go 1 [] lines in
  match (header.scheme, header.sites) with
  | None, _ -> Error "missing 'scheme' directive"
  | _, None -> Error "missing 'sites' directive"
  | Some scheme, Some n_sites ->
      let* config =
        Blockrep.Config.make ~scheme ~n_sites ~n_blocks:header.blocks
          ?latency:(Option.map (fun x -> Util.Dist.Constant x) header.latency)
          ~witnesses:header.witnesses ~track_liveness:header.track_liveness ~seed:header.seed
          ~fault_profile:header.faults
          ?service:(if header.service then Some Net.Service_model.default else None)
          ()
        |> Result.map_error (fun e -> "bad header: " ^ e)
      in
      let* () =
        List.fold_left (fun acc ev -> Result.bind acc (fun () -> check_event config ev)) (Ok ()) events
      in
      Ok { config; horizon = header.horizon; events }

let parse_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      parse text

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let payload_matches expected block =
  let s = Blockdev.Block.to_string block in
  String.length expected <= String.length s && String.sub s 0 (String.length expected) = expected

let run t =
  let cluster = Blockrep.Cluster.create t.config in
  let engine = Blockrep.Cluster.engine cluster in
  let failures = ref [] in
  let events_run = ref 0 in
  let fail_line line fmt =
    Printf.ksprintf (fun msg -> failures := Printf.sprintf "line %d: %s" line msg :: !failures) fmt
  in
  let execute ev =
    incr events_run;
    let line = ev.line in
    match ev.action with
    | Fail s -> Blockrep.Cluster.fail_site cluster s
    | Repair s -> Blockrep.Cluster.repair_site cluster s
    | Partition groups -> Blockrep.Cluster.partition cluster groups
    | Heal -> Blockrep.Cluster.heal cluster
    | Crash_torn s ->
        (* Arm the tear, then crash: the site's most recent journaled write
           is left garbled on the platter for the recovery scrub to replay. *)
        Blockrep.Cluster.arm_torn_write cluster s;
        Blockrep.Cluster.fail_site cluster s
    | Bitrot (site, block) -> Blockrep.Cluster.inject_bitrot cluster ~site ~block
    | Disk_replace s -> Blockrep.Cluster.replace_disk cluster s
    | Slow_site (s, f) -> Blockrep.Cluster.set_rate_factor cluster s f
    | Burst (site, n) ->
        (* Arrival pressure: [n] back-to-back client reads of block 0 at
           the site, answers discarded — with a service model installed
           they pile into the site's entry queue. *)
        for _ = 1 to n do
          Blockrep.Cluster.read cluster ~site ~block:0 (fun _ -> ())
        done
    | Queue_flood (s, n) -> Blockrep.Cluster.flood_site cluster s ~count:n
    | Write (site, block, payload) ->
        Blockrep.Cluster.write cluster ~site ~block (Blockdev.Block.of_string payload) (function
          | Ok _ -> ()
          | Error e ->
              fail_line line "write %d@%d failed: %s" block site
                (Blockrep.Types.failure_reason_to_string e))
    | Read (site, block) -> Blockrep.Cluster.read cluster ~site ~block (fun _ -> ())
    | Expect_read (site, block, payload) ->
        Blockrep.Cluster.read cluster ~site ~block (function
          | Ok (b, _) ->
              if not (payload_matches payload b) then
                fail_line line "read %d@%d returned %S, wanted %S" block site
                  (String.trim (String.sub (Blockdev.Block.to_string b) 0 24))
                  payload
          | Error e ->
              fail_line line "read %d@%d refused: %s" block site
                (Blockrep.Types.failure_reason_to_string e))
    | Expect_read_fail (site, block) ->
        Blockrep.Cluster.read cluster ~site ~block (function
          | Ok _ -> fail_line line "read %d@%d unexpectedly succeeded" block site
          | Error _ -> ())
    | Expect_write_fail (site, block) ->
        Blockrep.Cluster.write cluster ~site ~block (Blockdev.Block.of_string "must-fail") (function
          | Ok _ -> fail_line line "write %d@%d unexpectedly succeeded" block site
          | Error _ -> ())
    | Expect_state (site, state) ->
        let actual = Blockrep.Cluster.site_state cluster site in
        if actual <> state then
          fail_line line "site %d is %s, expected %s" site
            (Blockrep.Types.site_state_to_string actual)
            (Blockrep.Types.site_state_to_string state)
    | Expect_available b ->
        let actual = Blockrep.Cluster.system_available cluster in
        if actual <> b then fail_line line "system availability is %b, expected %b" actual b
    | Expect_consistent ->
        if not (Blockrep.Cluster.consistent_available_stores cluster) then
          fail_line line "available stores disagree"
    | Expect_inconsistent ->
        (* For documenting failure modes (e.g. available copy under a
           partition): the scenario asserts the divergence happens. *)
        if Blockrep.Cluster.consistent_available_stores cluster then
          fail_line line "stores unexpectedly consistent"
    | Check_invariants ->
        (* The full per-scheme invariant scan of the checking subsystem;
           meaningful at quiescent points (give in-flight messages time to
           land before scheduling it). *)
        List.iter
          (fun v -> fail_line line "invariant violated: %s" (Check.Violation.to_string v))
          (Check.Invariant.scan cluster)
  in
  List.iter
    (fun ev -> ignore (Sim.Engine.schedule_at engine ~time:ev.time (fun () -> execute ev) : Sim.Engine.handle))
    t.events;
  let horizon =
    match t.horizon with
    | Some x -> x
    | None -> List.fold_left (fun acc ev -> Float.max acc ev.time) 0.0 t.events +. 100.0
  in
  Blockrep.Cluster.run_until cluster horizon;
  { passed = !failures = []; failures = List.rev !failures; events_run = !events_run; cluster }

let check text =
  match parse text with
  | Error e -> Error [ e ]
  | Ok t ->
      let outcome = run t in
      if outcome.passed then Ok () else Error outcome.failures
