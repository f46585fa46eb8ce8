type t = {
  scheme : Types.scheme;
  n_sites : int;
  n_blocks : int;
  net_mode : Net.Network.mode;
  latency : Util.Dist.t;
  op_timeout : float;
  quorum : Quorum.t;
  witnesses : Types.Int_set.t;
  track_liveness : bool;
  seed : int;
  fault_profile : Net.Faults.profile;
  service : Net.Service_model.t option;
  robustness : Robustness.t;
  sync_profile : Blockdev.Sync_cost.profile option;
  encoded_delivery : bool;
  quarantine : Net.Network.quarantine;
}

(* Per-site state grows with the square of the site count (peer caches,
   the breaker matrix); a count far past this cannot run, and a huge one
   would make [Quorum.majority] raise or exhaust memory. *)
let max_sites = 1024

let make ~scheme ~n_sites ?(n_blocks = 64) ?(net_mode = Net.Network.Multicast)
    ?(latency = Util.Dist.Constant 0.5) ?op_timeout ?quorum ?(witnesses = []) ?(track_liveness = false)
    ?(seed = 42) ?(fault_profile = Net.Faults.pristine) ?service ?(robustness = Robustness.off) ?sync_profile
    ?(encoded_delivery = false) ?(quarantine = Net.Network.default_quarantine) () =
  if n_sites < 1 then Error "need at least one site"
  else if n_sites > max_sites then Error (Printf.sprintf "at most %d sites" max_sites)
  else if n_blocks < 1 then Error "need at least one block"
  else begin
    match Util.Dist.validate latency with
    | Error e -> Error ("bad latency distribution: " ^ e)
    | Ok latency ->
        let op_timeout = Option.value op_timeout ~default:(8.0 *. Util.Dist.mean latency) in
        if op_timeout <= 0.0 then Error "op_timeout must be positive"
        else begin
          let quorum = match quorum with Some q -> q | None -> Quorum.majority ~n:n_sites in
          let witness_set = Types.int_set_of_list witnesses in
          if not (Int.equal (Quorum.n_sites quorum) n_sites) then
            Error "quorum weight vector length must equal n_sites"
          else if Types.Int_set.exists (fun w -> w < 0 || w >= n_sites) witness_set then
            Error "witness ids must name existing sites"
          else if Types.Int_set.cardinal witness_set >= n_sites then
            Error "at least one site must hold data"
          else if (not (Types.Int_set.is_empty witness_set)) && scheme <> Types.Voting then
            Error "witnesses only make sense under voting"
          else begin
            match Net.Faults.validate_profile fault_profile with
            | Error e -> Error ("bad fault profile: " ^ e)
            | Ok _
              when (not encoded_delivery)
                   && not (Net.Faults.corruption_is_trivial fault_profile.Net.Faults.corruption) ->
                (* The PR 6 lesson: a knob that can silently inject nothing
                   is a bug factory.  Corruption damages encoded bytes, so
                   without encoded delivery it would be exactly that. *)
                Error "corruption injection requires encoded_delivery (there are no wire bytes to damage otherwise)"
            | Ok fault_profile -> (
                let service_ok =
                  match service with
                  | None -> Ok None
                  | Some m -> (
                      match Net.Service_model.validate m with
                      | Ok m -> Ok (Some m)
                      | Error e -> Error ("bad service model: " ^ e))
                in
                match service_ok with
                | Error e -> Error e
                | Ok service -> (
                    match Robustness.validate robustness with
                    | Error e -> Error ("bad robustness config: " ^ e)
                    | Ok robustness -> (
                        match Net.Network.validate_quarantine quarantine with
                        | Error e -> Error ("bad quarantine policy: " ^ e)
                        | Ok quarantine ->
                        Ok
                          {
                            scheme;
                            n_sites;
                            n_blocks;
                            net_mode;
                            latency;
                            op_timeout;
                            quorum;
                            witnesses = witness_set;
                            track_liveness;
                            seed;
                            fault_profile;
                            service;
                            robustness;
                            sync_profile;
                            encoded_delivery;
                            quarantine;
                          })))
          end
        end
  end

let make_exn ~scheme ~n_sites ?n_blocks ?net_mode ?latency ?op_timeout ?quorum ?witnesses
    ?track_liveness ?seed ?fault_profile ?service ?robustness ?sync_profile ?encoded_delivery
    ?quarantine () =
  match
    make ~scheme ~n_sites ?n_blocks ?net_mode ?latency ?op_timeout ?quorum ?witnesses
      ?track_liveness ?seed ?fault_profile ?service ?robustness ?sync_profile ?encoded_delivery
      ?quarantine ()
  with
  | Ok t -> t
  | Error msg -> invalid_arg ("Config.make: " ^ msg)

let pp ppf t =
  Format.fprintf ppf "config(%s, n=%d, blocks=%d, %s, latency=%a, timeout=%g, seed=%d)"
    (Types.scheme_to_string t.scheme)
    t.n_sites t.n_blocks
    (Net.Network.mode_to_string t.net_mode)
    Util.Dist.pp t.latency t.op_timeout t.seed
