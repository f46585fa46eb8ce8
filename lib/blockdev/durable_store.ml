type tear = Torn_apply | Torn_journal

type counters = {
  mutable torn_writes : int;
  mutable bitrot_injected : int;
  mutable refused_installs : int;
  mutable repaired_blocks : int;
  mutable scrub_runs : int;
  mutable scrub_replayed : int;
  mutable scrub_discarded : int;
  mutable scrub_quarantined : int;
  mutable scrub_meta_reset : int;
  mutable disk_replacements : int;
  mutable journal_commits : int;
}

let zero_counters () =
  {
    torn_writes = 0;
    bitrot_injected = 0;
    refused_installs = 0;
    repaired_blocks = 0;
    scrub_runs = 0;
    scrub_replayed = 0;
    scrub_discarded = 0;
    scrub_quarantined = 0;
    scrub_meta_reset = 0;
    disk_replacements = 0;
    journal_commits = 0;
  }

let accumulate_counters acc c =
  acc.torn_writes <- acc.torn_writes + c.torn_writes;
  acc.bitrot_injected <- acc.bitrot_injected + c.bitrot_injected;
  acc.refused_installs <- acc.refused_installs + c.refused_installs;
  acc.repaired_blocks <- acc.repaired_blocks + c.repaired_blocks;
  acc.scrub_runs <- acc.scrub_runs + c.scrub_runs;
  acc.scrub_replayed <- acc.scrub_replayed + c.scrub_replayed;
  acc.scrub_discarded <- acc.scrub_discarded + c.scrub_discarded;
  acc.scrub_quarantined <- acc.scrub_quarantined + c.scrub_quarantined;
  acc.scrub_meta_reset <- acc.scrub_meta_reset + c.scrub_meta_reset;
  acc.disk_replacements <- acc.disk_replacements + c.disk_replacements;
  acc.journal_commits <- acc.journal_commits + c.journal_commits

type slot = W | Group of Block.id

type scrub_report = {
  replayed : int;
  discarded : int;
  quarantined : int;
  meta_reset : slot option;
}

type intention =
  | Data of {
      block : Block.id;
      version : int;
      data : Block.t;
      prev_version : int;
      prev_data : Block.t;
    }
  | Meta of { slot : slot; value : int list; prev : int list option }

(* The journal is real bytes: one checksummed {!Codec.Frame} holding the
   serialized intention, followed by a single commit byte (0x00 pending,
   0x01 committed) — the commit phase is one byte flip, like flipping a
   sector's commit mark.  The scrub's replay/discard verdict comes from
   actually decoding these bytes: a torn append physically truncates the
   record so its frame CRC no longer validates, and decode failure IS
   the discard path — no modeled flag stands in for the arithmetic. *)

module B = Codec.Buf
module Int_map = Map.Make (Int)

(* The metadata records: absent means "every site", so a store that never
   writes one holds nothing for it. *)
type t = {
  store : Store.t;
  bf : Block_file.t;
  mutable w : int list option;
  mutable groups : int list Int_map.t;
  mutable journal : Bytes.t option;
  mutable armed : tear option;
  mutable torn_meta : slot option;
  mutable last_scrub : scrub_report option;
  counters : counters;
}

let put_int_list w l =
  B.varint w (List.length l);
  List.iter (fun x -> B.varint w x) l

let encode_intention intent =
  let payload w =
    match intent with
    | Data { block; version; data; prev_version; prev_data } ->
        B.u8 w 1;
        B.varint w block;
        B.varint w version;
        B.raw_string w (Block.to_string data);
        B.varint w prev_version;
        B.raw_string w (Block.to_string prev_data)
    | Meta { slot; value; prev } -> (
        B.u8 w 2;
        (match slot with
        | W -> B.u8 w 0
        | Group b ->
            B.u8 w 1;
            B.varint w b);
        put_int_list w value;
        match prev with
        | None -> B.u8 w 0
        | Some p ->
            B.u8 w 1;
            put_int_list w p)
  in
  let frame = Codec.Frame.encode ~payload in
  let j = Bytes.create (Bytes.length frame + 1) in
  Bytes.blit frame 0 j 0 (Bytes.length frame);
  Bytes.set j (Bytes.length frame) '\000';
  j

let commit_journal t j =
  Bytes.set j (Bytes.length j - 1) '\001';
  t.counters.journal_commits <- t.counters.journal_commits + 1

(* Physically tear a journal record: keep only a prefix of the frame, as
   a crash mid-append would.  The truncated record cannot pass frame
   validation, so [decode_journal] — and therefore the scrub — sees an
   unreadable intention. *)
let tear_journal_bytes j = Bytes.sub j 0 (Bytes.length j / 2)

let get_int_list r =
  let n = B.r_varint r in
  if n < 0 || n > B.remaining r then raise (B.Bad "int-list length exceeds record");
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (B.r_varint r :: acc) in
  go n []

(* [None] when the record is unreadable (torn append): bad frame CRC,
   truncation, or payload garbage.  Otherwise the intention and whether
   the commit byte was set. *)
let decode_journal j =
  let n = Bytes.length j in
  if n < 1 then None
  else
    match Codec.Frame.decode_sub j ~pos:0 ~len:(n - 1) with
    | Error _ -> None
    | Ok r -> (
        match
          (match B.r_u8 r with
          | 1 ->
              let block = B.r_varint r in
              let version = B.r_varint r in
              let data = Block.of_string (B.r_raw_string r Block.size) in
              let prev_version = B.r_varint r in
              let prev_data = Block.of_string (B.r_raw_string r Block.size) in
              Some (Data { block; version; data; prev_version; prev_data })
          | 2 ->
              let slot =
                match B.r_u8 r with
                | 0 -> W
                | 1 -> Group (B.r_varint r)
                | _ -> raise (B.Bad "bad metadata slot")
              in
              let value = get_int_list r in
              let prev =
                match B.r_u8 r with
                | 0 -> None
                | 1 -> Some (get_int_list r)
                | _ -> raise (B.Bad "bad option byte")
              in
              Some (Meta { slot; value; prev })
          | _ -> None)
        with
        | Some intent when B.at_end r ->
            Some (intent, Bytes.get j (n - 1) = '\001')
        | Some _ | None -> None
        | exception B.Short -> None
        | exception B.Bad _ -> None)

let create ~capacity =
  let store = Store.create ~capacity in
  {
    store;
    bf = Store.block_file store;
    w = None;
    groups = Int_map.empty;
    journal = None;
    armed = None;
    torn_meta = None;
    last_scrub = None;
    counters = zero_counters ();
  }

let store t = t.store
let capacity t = Store.capacity t.store
let counters t = t.counters
let last_scrub t = t.last_scrub

(* The checksum lives in the block-file index: CRC-32 over the payload
   bytes in the image, mixed with the version, sealed only at this
   layer's commit points (see the sealing discipline in block_file.mli). *)
let checksum_ok t k = Block_file.checksum_ok t.bf k

let effective_version t k = if checksum_ok t k then Store.version t.store k else 0

let effective_versions t =
  let v = Version_vector.create (capacity t) in
  for k = 0 to capacity t - 1 do
    Version_vector.set v k (effective_version t k)
  done;
  v

let read_verified t k =
  if checksum_ok t k then Some (Store.read t.store k, Store.version t.store k) else None

let write t k data ~version =
  let stored = Store.version t.store k in
  if version < stored then begin
    if checksum_ok t k then
      invalid_arg
        (Printf.sprintf "Durable_store.write: version regression on block %d (%d < %d)" k version
           stored)
    else
      (* The local copy is corrupt but its version metadata is intact and
         higher than what we are being offered: installing would regress
         below a version this disk is known to have acknowledged.  Stay
         quarantined and wait for data at >= the stored version. *)
      t.counters.refused_installs <- t.counters.refused_installs + 1
  end
  else begin
    let was_corrupt = not (checksum_ok t k) in
    (* Two-phase intention record: append, commit, then apply in place.  A
       crash tears at most one of these phases (see {!crash}); the scrub
       replays a committed-but-torn apply and discards an uncommitted
       append, so the block write and its version update are atomic as a
       pair. *)
    let j =
      encode_intention
        (Data { block = k; version; data; prev_version = stored; prev_data = Store.read t.store k })
    in
    t.journal <- Some j;
    commit_journal t j;
    Store.write t.store k data ~version;
    Block_file.seal t.bf k;
    if was_corrupt then t.counters.repaired_blocks <- t.counters.repaired_blocks + 1
  end

let apply_updates t updates =
  List.iter
    (fun (k, ver, data) ->
      let stored = Store.version t.store k in
      let corrupt = not (checksum_ok t k) in
      if ver > stored || (corrupt && ver = stored) then begin
        Store.write t.store k data ~version:ver;
        Block_file.seal t.bf k;
        if corrupt then t.counters.repaired_blocks <- t.counters.repaired_blocks + 1
      end
      else if corrupt && ver < stored then
        t.counters.refused_installs <- t.counters.refused_installs + 1)
    updates

let verified_blocks_newer_than t v =
  List.filter (fun (k, _, _) -> checksum_ok t k) (Store.blocks_newer_than t.store v)

let record t = function W -> t.w | Group b -> Int_map.find_opt b t.groups

let put_record t slot v =
  match slot with W -> t.w <- v | Group b -> t.groups <- Int_map.update b (fun _ -> v) t.groups

let set_record t slot value =
  let j = encode_intention (Meta { slot; value; prev = record t slot }) in
  t.journal <- Some j;
  commit_journal t j;
  put_record t slot (Some value)

let w t = t.w
let set_w t value = set_record t W value
let group t b = record t (Group b)
let set_group t b value = set_record t (Group b) value

(* Deterministic in-place scramble of the stored image bytes of block
   [k].  The version metadata is left intact — sector decay and torn
   sector writes corrupt data bytes, not the separately journaled
   version table — so the index checksum no longer matches and the
   block is quarantined.  A single CRC-32 input flip always changes the
   digest; the second flip only fires when the first undid a previous
   injection at the same (block, version) position. *)
let corrupt_in_place t k =
  let v = Store.version t.store k in
  let pos = (k * 131 + v * 31) mod Block.size in
  Block_file.flip_byte t.bf k ~pos ~mask:0xA5;
  if checksum_ok t k then Block_file.flip_byte t.bf k ~pos:((pos + 1) mod Block.size) ~mask:0x3C

let inject_bitrot t k =
  corrupt_in_place t k;
  t.counters.bitrot_injected <- t.counters.bitrot_injected + 1

let arm_torn_write ?(mode = Torn_apply) t = t.armed <- Some mode
let armed t = t.armed

(* A torn in-place apply, byte-accurately: the prefix of the new payload
   reached the platter, the suffix still holds pre-image bytes.  The
   tear point is seeded by (block, version); when new and old agree
   across the tear (so the sealed checksum would still validate), fall
   back to a byte scramble — the sector was damaged either way. *)
let tear_apply t block version prev_data =
  let tear = 1 + ((block * 131 + version * 31) mod (Block.size - 1)) in
  Block_file.blit_suffix t.bf block ~from:tear (Block.to_string prev_data);
  if checksum_ok t block then corrupt_in_place t block

let crash t =
  (match (t.armed, t.journal) with
  | Some Torn_apply, Some j -> (
      match decode_journal j with
      | Some (Data { block; version; prev_data; _ }, true) ->
          (* Journal committed, but the in-place apply was torn: stale
             pre-image bytes under an intact version number. *)
          tear_apply t block version prev_data;
          t.counters.torn_writes <- t.counters.torn_writes + 1
      | Some (Meta { slot; _ }, true) ->
          t.torn_meta <- Some slot;
          t.counters.torn_writes <- t.counters.torn_writes + 1
      | _ -> ())
  | Some Torn_journal, Some j -> (
      (* The journal append itself was torn: the intention never became
         durable, so the apply never reached the platter either.  Restore
         the pre-image and physically truncate the record; the scrub will
         fail to decode it and discard. *)
      match decode_journal j with
      | Some (Data { block; prev_version; prev_data; _ }, _) ->
          Store.demote t.store block;
          Store.write t.store block prev_data ~version:prev_version;
          Block_file.seal t.bf block;
          t.journal <- Some (tear_journal_bytes j);
          t.counters.torn_writes <- t.counters.torn_writes + 1
      | Some (Meta { slot; prev; _ }, _) ->
          put_record t slot prev;
          t.journal <- Some (tear_journal_bytes j);
          t.counters.torn_writes <- t.counters.torn_writes + 1
      | None -> ())
  | _ -> ());
  t.armed <- None

let scrub t =
  t.counters.scrub_runs <- t.counters.scrub_runs + 1;
  let replayed = ref 0 and discarded = ref 0 in
  (match t.journal with
  | Some j -> (
      match decode_journal j with
      | Some (Data { block; version; data; _ }, true)
        when Store.version t.store block = version && not (checksum_ok t block) ->
          (* Committed intention whose apply was torn: replay it exactly. *)
          Store.write t.store block data ~version;
          Block_file.seal t.bf block;
          incr replayed
      | Some (_, false) | None ->
          (* Uncommitted or unreadable (torn append): drop it. *)
          incr discarded
      | Some _ -> ())
  | None -> ());
  t.journal <- None;
  let meta_reset = t.torn_meta in
  t.torn_meta <- None;
  Option.iter
    (fun slot ->
      put_record t slot None;
      t.counters.scrub_meta_reset <- t.counters.scrub_meta_reset + 1)
    meta_reset;
  let quarantined = ref 0 in
  for k = 0 to capacity t - 1 do
    if not (checksum_ok t k) then incr quarantined
  done;
  t.counters.scrub_replayed <- t.counters.scrub_replayed + !replayed;
  t.counters.scrub_discarded <- t.counters.scrub_discarded + !discarded;
  t.counters.scrub_quarantined <- t.counters.scrub_quarantined + !quarantined;
  let report =
    { replayed = !replayed; discarded = !discarded; quarantined = !quarantined; meta_reset }
  in
  t.last_scrub <- Some report;
  report

let replace_disk t =
  Block_file.reset t.bf;
  t.w <- None;
  t.groups <- Int_map.empty;
  t.journal <- None;
  t.armed <- None;
  t.torn_meta <- None;
  t.counters.disk_replacements <- t.counters.disk_replacements + 1
