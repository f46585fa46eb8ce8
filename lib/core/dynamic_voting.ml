module Int_set = Types.Int_set
module Store = Blockdev.Store
module Durable = Blockdev.Durable_store

(* The last update group a site knows for a block lives only on its disk,
   as the store's journaled group record: like the version numbers it
   survives site failures, and unlike them a torn write of it is caught by
   the scrub and reset to absent, which reads as the full site set — a
   too-large cardinality only makes quorum tests stricter.  Votes carry
   only the cardinality (all the quorum test needs); the membership itself
   drives the availability predicate. *)
type t = { rt : Runtime.t }

let group_record rt site block = Durable.group (Runtime.site rt site).Runtime.durable block

let group_size rt = function Some ids -> List.length ids | None -> Runtime.n_sites rt
let group_of rt site block = group_size rt (group_record rt site block)

let set_group t site block g =
  Durable.set_group (Runtime.site t.rt site).Runtime.durable block (Int_set.elements g)

(* The install guard shared by pushed updates and pulled copies: strictly
   newer data, or data at a quarantined copy's version floor. *)
let accepts (s : Runtime.site) block version =
  let stored = Store.version s.Runtime.store block in
  version > stored || ((not (Durable.checksum_ok s.Runtime.durable block)) && version >= stored)

(* A vote: (site, version, recorded group size). *)
let vote_of_reply block = function
  | from, Wire.Vote_reply { block = b; version; group_size; _ } when b = block ->
      Some (from, version, group_size)
  | _ -> None

(* Votes carry the effective version: a quarantined copy claims 0. *)
let local_vote t site block =
  let s = Runtime.site t.rt site in
  (site, Durable.effective_version s.Runtime.durable block, group_of t.rt site block)

let coordinator_alive t site = (Runtime.site t.rt site).Runtime.state = Types.Available

(* The dynamic quorum test: among [votes], the holders of the highest
   version must form a strict majority of the group that installed it.
   Returns the current holders and the top version on success. *)
let quorum_check votes =
  let top_version = List.fold_left (fun acc (_, v, _) -> Int.max acc v) 0 votes in
  let holders = List.filter (fun (_, v, _) -> v = top_version) votes in
  (* All current holders recorded the same group write, hence the same
     cardinality; max-merge defends against a corrupt straggler. *)
  let last_group = List.fold_left (fun acc (_, _, g) -> Int.max acc g) 0 holders in
  if 2 * List.length holders > last_group then Some (holders, top_version) else None

(* Route around breaker-open peers in the vote round — conservatively:
   group membership is unknown until the votes land, so a peer may only be
   dropped from the awaited set while the survivors plus the coordinator
   still form a strict majority of the {e full} site set, the largest
   group any block can record.  The multicast still reaches dropped peers
   and their votes are tallied if they arrive; safety rests on the quorum
   test over received votes, never on the pruning. *)
let prune_suspects t ~site expected =
  let n = Runtime.n_sites t.rt in
  List.fold_left
    (fun kept peer ->
      if Runtime.breaker_allows t.rt ~coordinator:site ~peer then kept
      else
        let kept' = Int_set.remove peer kept in
        if 2 * (Int_set.cardinal kept' + 1) > n then kept' else kept)
    expected
    (List.rev (Int_set.elements expected))

let collect_votes ?deadline t ~site ~block ~purpose ~k =
  let expected = prune_suspects t ~site (Runtime.up_peers t.rt site) in
  let rid =
    Runtime.begin_round ?deadline t.rt ~coordinator:site ~expected
      ~on_complete:(fun outcome replies ->
        match outcome with
        | Runtime.Aborted -> k None
        | Runtime.Complete | Runtime.Timeout ->
            if not (coordinator_alive t site) then k None
            else k (Some (local_vote t site block :: List.filter_map (vote_of_reply block) replies)))
  in
  Runtime.broadcast t.rt ~op:purpose ~from:site (Wire.Vote_request { rid; block; purpose })

let apply_update t site block data ~version ~group =
  let s = Runtime.site t.rt site in
  if accepts s block version then begin
    Durable.write s.Runtime.durable block data ~version;
    set_group t site block group
  end

(* Version-based quorum checks can fail transiently while an update is
   still propagating (only the writer holds the top version for one
   latency).  Operations therefore retry once after the wires quiet
   down before reporting No_quorum. *)
let with_retry t ?deadline ~site attempt callback =
  let retried = ref false in
  let rec go () =
    attempt (function
      | Error Types.No_quorum when not !retried ->
          retried := true;
          let delay = (Runtime.config t.rt).Config.op_timeout in
          (* A retry that would start past the operation's deadline is not
             scheduled at all: the budget is already spent. *)
          if
            Runtime.past_deadline t.rt
              (Option.map (fun d -> d -. delay) deadline)
          then callback (Error Types.Timed_out)
          else
            ignore
              (Sim.Engine.schedule (Runtime.engine t.rt) ~delay (fun () ->
                   if (Runtime.site t.rt site).Runtime.state = Types.Available then go ()
                   else callback (Error Types.Site_not_available))
                : Sim.Engine.handle)
      | result -> callback result)
  in
  go ()

let read_attempt t ?deadline ~site ~block callback =
  let s = Runtime.site t.rt site in
  if s.Runtime.state <> Types.Available then callback (Error Types.Site_not_available)
  else if Runtime.past_deadline t.rt deadline then callback (Error Types.Timed_out)
  else
    collect_votes ?deadline t ~site ~block ~purpose:Net.Message.Read ~k:(function
      | None -> callback (Error Types.Site_not_available)
      | Some votes -> (
          match quorum_check votes with
          | None -> callback (Error Types.No_quorum)
          | Some (holders, top_version) -> (
              match Durable.read_verified s.Runtime.durable block with
              | Some (data, v) when v >= top_version -> callback (Ok (data, top_version))
              | _ when List.for_all (fun (i, _, _) -> i = site) holders ->
                  (* The local site is the only holder yet cannot serve: a
                     quarantined copy only wins the vote at effective
                     version 0 (a rotted never-written block), so there is
                     nothing to pull — heal it with the zero block. *)
                  if top_version = 0 then begin
                    Durable.write s.Runtime.durable block Blockdev.Block.zero ~version:0;
                    callback (Ok (Blockdev.Block.zero, 0))
                  end
                  else callback (Error Types.Current_copy_unreachable)
              | _ when Runtime.past_deadline t.rt deadline ->
                  (* The votes consumed the budget; the pull cannot meet
                     it, so it is not issued. *)
                  callback (Error Types.Timed_out)
              | _ ->
              begin
                (* Pull from the lowest-id current holder (deterministic). *)
                let source =
                  List.fold_left (fun acc (i, _, _) -> Int.min acc i) max_int
                    (List.filter (fun (i, _, _) -> i <> site) holders)
                in
                let rid =
                  Runtime.begin_round ?deadline t.rt ~coordinator:site
                    ~expected:(Int_set.singleton source)
                    ~on_complete:(fun outcome replies ->
                      if not (coordinator_alive t site) then callback (Error Types.Site_not_available)
                      else
                        match
                          ( outcome,
                            List.find_map
                              (function
                                | _, Wire.Block_transfer { block = b; version; data; _ } when b = block
                                  ->
                                    Some (version, data)
                                | _ -> None)
                              replies )
                        with
                        | (Runtime.Complete | Runtime.Timeout), Some (version, data)
                          when version >= top_version ->
                            (* Install the data but keep our group record:
                               a pulled copy does not make us a member of
                               the holder's group, and a conservative
                               (over-large) recorded cardinality can only
                               make later quorum tests stricter, never
                               unsafe.  A transfer below the voted version
                               (the holder's copy rotted in between) is
                               rejected above, like a timeout. *)
                            if accepts s block version then
                              Durable.write s.Runtime.durable block data ~version;
                            callback (Ok (data, version))
                        | (Runtime.Complete | Runtime.Timeout), Some _
                        | _, None
                        | Runtime.Aborted, _ ->
                            callback (Error Types.Timed_out))
                in
                Runtime.send t.rt ~op:Net.Message.Read ~from:site ~dst:source
                  (Wire.Block_request { rid; block })
              end)))

let read t ?deadline ~site ~block callback =
  with_retry t ?deadline ~site (fun k -> read_attempt t ?deadline ~site ~block k) callback

let write_attempt t ?deadline ~site ~block data callback =
  let s = Runtime.site t.rt site in
  if s.Runtime.state <> Types.Available then callback (Error Types.Site_not_available)
  else if Runtime.past_deadline t.rt deadline then callback (Error Types.Timed_out)
  else
    collect_votes ?deadline t ~site ~block ~purpose:Net.Message.Write ~k:(function
      | None -> callback (Error Types.Site_not_available)
      | Some votes -> (
          match quorum_check votes with
          | None -> callback (Error Types.No_quorum)
          | Some (_, top_version) ->
              let version = top_version + 1 in
              (* Tentative new group: every voter (stale members are
                 thereby adopted back and rewritten). *)
              let tentative =
                List.fold_left (fun acc (i, _, _) -> Int_set.add i acc) Int_set.empty votes
              in
              Durable.write s.Runtime.durable block data ~version;
              set_group t site block tentative;
              (* The group's recorded cardinality must match who actually
                 applied the write, or a missed update could wedge a small
                 group forever: collect acknowledgements and, when someone
                 died in flight, publish the group that really formed. *)
              let expected = Int_set.remove site tentative in
              (* The ack round is deliberately NOT breaker-pruned: the
                 ackers determine the final group, and not waiting for a
                 live member would shrink the published group for a reason
                 unrelated to who applied the write.  The deadline still
                 clamps the wait. *)
              let rid =
                Runtime.begin_round ?deadline t.rt ~coordinator:site ~expected
                  ~on_complete:(fun outcome replies ->
                    match outcome with
                    | Runtime.Aborted -> callback (Error Types.Site_not_available)
                    | Runtime.Complete | Runtime.Timeout ->
                        let ackers =
                          List.filter_map
                            (function
                              | from, Wire.Write_ack { block = b; _ } when b = block -> Some from
                              | _ -> None)
                            replies
                        in
                        let final = Int_set.add site (Int_set.of_list ackers) in
                        if not (Int_set.equal final tentative) then begin
                          set_group t site block final;
                          Runtime.broadcast t.rt ~op:Net.Message.Write ~from:site
                            (Wire.Group_fix { block; version; group = final })
                        end;
                        callback (Ok version))
              in
              Runtime.broadcast t.rt ~op:Net.Message.Write ~from:site
                (Wire.Block_update { rid = Some rid; block; version; data; carried_w = tentative })))

let write t ?deadline ~site ~block data callback =
  with_retry t ?deadline ~site (fun k -> write_attempt t ?deadline ~site ~block data k) callback

let handle t (s : Runtime.site) ~from msg =
  match msg with
  | Wire.Vote_request { rid; block; purpose } ->
      Runtime.send t.rt ~op:purpose ~from:s.Runtime.id ~dst:from
        (Wire.Vote_reply
           {
             rid;
             block;
             version = Durable.effective_version s.Runtime.durable block;
             weight = 1;
             group_size = group_of t.rt s.Runtime.id block;
           })
  | Wire.Block_update { rid; block; version; data; carried_w } ->
      (* Only named group members may adopt the write: an unlisted site
         silently counting itself into the group would break the
         majority-of-last-group arithmetic. *)
      if Int_set.mem s.Runtime.id carried_w then begin
        apply_update t s.Runtime.id block data ~version ~group:carried_w;
        match rid with
        | Some rid ->
            Runtime.send t.rt ~op:Net.Message.Write ~from:s.Runtime.id ~dst:from
              (Wire.Write_ack { rid; block })
        | None -> ()
      end
  | Wire.Group_fix { block; version; group } ->
      (* Adopt the corrected cardinality only if we hold exactly that
         write. *)
      if
        Int_set.mem s.Runtime.id group
        && Durable.effective_version s.Runtime.durable block = version
      then set_group t s.Runtime.id block group
  | Wire.Block_request { rid; block } ->
      (* A quarantined copy serves (0, zero) — it can prove nothing — and
         the requester rejects the transfer against the voted version. *)
      let version = Durable.effective_version s.Runtime.durable block in
      let data =
        if version = 0 then Blockdev.Block.zero else Store.read s.Runtime.store block
      in
      Runtime.send t.rt ~op:Net.Message.Read ~from:s.Runtime.id ~dst:from
        (Wire.Block_transfer { rid; block; version; data })
  | Wire.Vote_reply { rid; _ } | Wire.Block_transfer { rid; _ } | Wire.Write_ack { rid; _ } ->
      Runtime.reply t.rt ~rid ~from msg
  | Wire.Recovery_probe _ | Wire.Recovery_reply _ | Wire.Vv_send _ | Wire.Vv_reply _
  | Wire.Batch_vote_request _ | Wire.Batch_vote_reply _ | Wire.Batch_update _ | Wire.Batch_ack _
  | Wire.Batch_request _ | Wire.Batch_transfer _ ->
      (* Dynamic voting keeps per-block update groups, which a shared
         batch round cannot carry; the cluster layer falls back to
         chained single-block operations for this scheme. *)
      ()

let create rt =
  let t = { rt } in
  Runtime.set_dispatch rt (fun s ~from msg -> handle t s ~from msg);
  t

let on_repair t site =
  Runtime.repair_site t.rt site (fun (s : Runtime.site) ->
      Runtime.set_state t.rt s.Runtime.id Types.Available)

(* Post-quiescence availability: once in-flight updates land, every up
   member of a block's last group holds its top version, so the block is
   serviceable iff a strict majority of that group is up.  Among the top
   holders' records we take the smallest group (the coordinator's
   post-fix one) — the most conservative. *)
let service_available t =
  let rt = t.rt in
  let config = Runtime.config rt in
  let sites = Runtime.sites rt in
  (* versions.(i): site i's effective version of the block under test,
     read once per block (each read is a CRC over the resident copy). *)
  let versions = Array.make (Array.length sites) 0 in
  let count_up n i = if sites.(i).Runtime.state = Types.Available then n + 1 else n in
  let all_up = List.fold_left count_up 0 (List.init (Array.length sites) Fun.id) in
  let ok = ref true and block = ref 0 in
  while !ok && !block < config.Config.n_blocks do
    let top_version = ref 0 in
    Array.iteri
      (fun i (s : Runtime.site) ->
        let v = Durable.effective_version s.Runtime.durable !block in
        versions.(i) <- v;
        top_version := Int.max !top_version v)
      sites;
    let group = ref None and size = ref max_int in
    Array.iteri
      (fun i v ->
        if v = !top_version then begin
          let g = group_record rt i !block in
          let n = group_size rt g in
          if n < !size then begin
            group := g;
            size := n
          end
        end)
      versions;
    let members_up = match !group with Some ids -> List.fold_left count_up 0 ids | None -> all_up in
    ok := 2 * members_up > !size;
    incr block
  done;
  !ok
