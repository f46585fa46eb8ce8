(* Off-path replays for the traced run: the codec and CRC timed on one
   message per traffic category, and a workload's write stream replayed
   on a bare durable store.  Both are timed here, outside the simulated
   cluster, and weighted by the counts the run itself reported. *)

module W = Blockrep.Wire

let iters = 400

let ns_per tr ~layer name f =
  Trace.span tr ~layer name (fun () ->
      let t0 = Clock.wall_ns () in
      for _ = 1 to iters do
        ignore (Sys.opaque_identity (f ()))
      done;
      float_of_int (Clock.wall_ns () - t0) /. float_of_int iters)

(* One representative message per category; version vectors span the
   workload's device capacity, as real recovery messages do. *)
let sample ~capacity ~n_sites (cat : Net.Message.category) =
  let set = Blockrep.Types.int_set_of_list (List.init n_sites Fun.id) in
  let data = Blockdev.Block.of_string (String.make Blockdev.Block.size 'x') in
  let vv () = Blockdev.Version_vector.create capacity in
  let info = { W.origin = 0; state = Blockrep.Types.Available; versions = vv (); was_available = set } in
  match cat with
  | Vote_request -> W.Vote_request { rid = 1; block = 5; purpose = Net.Message.Write }
  | Vote_reply -> W.Vote_reply { rid = 1; block = 5; version = 9; weight = 1; group_size = n_sites }
  | Block_update -> W.Block_update { rid = Some 2; block = 5; version = 9; data; carried_w = set }
  | Write_ack -> W.Write_ack { rid = 2; block = 5 }
  | Block_request -> W.Block_request { rid = 3; block = 5 }
  | Block_transfer -> W.Block_transfer { rid = 3; block = 5; version = 9; data }
  | Recovery_probe -> W.Recovery_probe { rid = 4; info }
  | Recovery_reply -> W.Recovery_reply { rid = 4; info }
  | Version_vector_send -> W.Vv_send { rid = 5; versions = vv (); w_of_sender = set }
  | Version_vector_reply ->
      W.Vv_reply { rid = 5; versions = vv (); updates = [ (5, 9, data) ]; w_of_source = set }
  | Was_available_update -> W.Group_fix { block = 5; version = 9; group = set }

type codec = { encode_ns : float; decode_ns : float; crc_ns_per_kb : float }

(* Encode and decode nanoseconds per message, weighted by how many
   messages of each category the run sent. *)
let codec tr ~capacity ~n_sites ~(count : Net.Message.category -> float) =
  let weighted =
    List.map
      (fun cat ->
        let m = sample ~capacity ~n_sites cat in
        let frame = W.encode m in
        (match W.decode frame with
        | Ok _ -> ()
        | Error e -> failwith ("codec round trip failed: " ^ W.decode_error_to_string e));
        let name = Net.Message.to_string cat in
        let enc = ns_per tr ~layer:"codec" ("encode " ^ name) (fun () -> W.encode m) in
        let dec = ns_per tr ~layer:"codec" ("decode " ^ name) (fun () -> W.decode frame) in
        (count cat, enc, dec))
      Net.Message.all
  in
  let total = List.fold_left (fun a (c, _, _) -> a +. c) 0.0 weighted in
  let avg f =
    if total = 0.0 then 0.0 else List.fold_left (fun a ((c, _, _) as x) -> a +. (c *. f x)) 0.0 weighted /. total
  in
  let kb = Bytes.make 4096 'x' in
  let crc = ns_per tr ~layer:"crc" "Crc.digest_bytes 4 KiB" (fun () -> Codec.Crc.digest_bytes kb) in
  {
    encode_ns = avg (fun (_, e, _) -> e);
    decode_ns = avg (fun (_, _, d) -> d);
    crc_ns_per_kb = crc /. 4.0;
  }

type store = {
  write_ns : float;
  read_verified_ns : float;
  checksum_ok_ns : float;
  words_resident : int;  (** reachable words of one replica after the replay *)
}

(* Replay [writes] (block, data) on a fresh durable store of
   [capacity] blocks, then read back and verify every written block. *)
let store tr ~capacity (writes : (int * Blockdev.Block.t) array) =
  let n = Array.length writes in
  let st = Blockdev.Durable_store.create ~capacity in
  let versions = Array.make capacity 0 in
  let per f = if n = 0 then 0.0 else float_of_int f /. float_of_int n in
  let timed name f =
    Trace.span tr ~layer:"store" name (fun () ->
        let t0 = Clock.wall_ns () in
        f ();
        Clock.wall_ns () - t0)
  in
  let w =
    timed "Durable_store.write" (fun () ->
        Array.iter
          (fun (b, data) ->
            versions.(b) <- versions.(b) + 1;
            Blockdev.Durable_store.write st b data ~version:versions.(b))
          writes)
  in
  let r =
    timed "Durable_store.read_verified" (fun () ->
        Array.iter
          (fun (b, _) ->
            if Blockdev.Durable_store.read_verified st b = None then failwith "store replay: quarantined block")
          writes)
  in
  let c =
    timed "Durable_store.checksum_ok" (fun () ->
        Array.iter (fun (b, _) -> ignore (Sys.opaque_identity (Blockdev.Durable_store.checksum_ok st b))) writes)
  in
  { write_ns = per w; read_verified_ns = per r; checksum_ok_ns = per c; words_resident = Obj.reachable_words (Obj.repr st) }

let writes_of ops =
  Array.of_list
    (List.filter_map
       (function Workload.Access_gen.Write (b, d) -> Some (b, d) | Workload.Access_gen.Read _ -> None)
       (Array.to_list ops))
