(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
   The digest is kept as a non-negative OCaml [int] (fits in 32 bits) so
   it can be stored in plain int arrays and compared with [=] without
   boxing.  The table is the one audited shared-global suppression in
   the codec library; everything else the domain-safety analyzer
   verifies outright (see DESIGN.md section 4k). *)

(* Eight 256-entry tables laid end to end.  Entries [0, 256) are the
   classic byte-at-a-time table; entry [k * 256 + n] is the CRC state
   after byte [n] followed by [k] zero bytes, so one step can fold eight
   input bytes with eight independent lookups. *)
let slices =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t
[@@lint.allow "shared-global"
  "write-once lookup table, fully initialised at module load before any domain can exist; \
   every later access is a read, so sharing it cannot race or reorder"]

(* Every table index below is masked into [0, 256) and offset by a
   multiple of 256 below [8 * 256], so the table reads skip the bounds
   check; the region check up front covers the byte reads. *)
let digest_sub buf ~pos ~len =
  if pos < 0 || len < 0 || len > Bytes.length buf - pos then
    invalid_arg "Crc.digest_sub: region out of bounds";
  let t = slices in
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let words_end = pos + (len land lnot 7) in
  while !i < words_end do
    let lo = !crc lxor (Int32.to_int (Bytes.get_int32_le buf !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (Bytes.get_int32_le buf (!i + 4)) land 0xFFFFFFFF in
    crc :=
      Array.unsafe_get t (0x700 + (lo land 0xff))
      lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 + (lo lsr 24))
      lxor Array.unsafe_get t (0x300 + (hi land 0xff))
      lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = words_end to pos + len - 1 do
    let c = !crc in
    crc := Array.unsafe_get t ((c lxor Char.code (Bytes.unsafe_get buf j)) land 0xff) lxor (c lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let digest_bytes buf = digest_sub buf ~pos:0 ~len:(Bytes.length buf)

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
