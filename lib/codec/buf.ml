(* Cursor-style writer/reader over [Bytes].

   The writer runs in one of two modes sharing the same field-emission
   code: a *counting* pass that only advances the length (no buffer, no
   allocation) and a *writing* pass that blits into a caller-sized
   buffer.  Encoders are written once against [w] and used for both
   [size] (measured, allocation-free) and [encode]; every counter is
   allocated fresh by its caller and this module holds no top-level
   state, so sizing is safe to call concurrently from sharded bench
   lanes.  That claim is no longer a comment: blockrep-lint's
   domain-safety passes (shared-global, domain-capture) run over the
   whole codec library and test_lint asserts they stay silent here.

   The reader raises the local exceptions [Short]/[Bad] on malformed
   input; [Frame]/callers catch them at the decode boundary and return
   typed errors, so the public decode API never raises. *)

type w = { mutable buf : Bytes.t; mutable len : int; write : bool }

let counter () = { buf = Bytes.empty; len = 0; write = false }

let writer capacity =
  if capacity < 0 then invalid_arg "Buf.writer: negative capacity";
  { buf = Bytes.create capacity; len = 0; write = true }

let length w = w.len
let contents w = Bytes.sub w.buf 0 w.len

let ensure w n =
  if w.write && w.len + n > Bytes.length w.buf then begin
    let cap = max (w.len + n) (max 64 (2 * Bytes.length w.buf)) in
    let buf = Bytes.create cap in
    Bytes.blit w.buf 0 buf 0 w.len;
    w.buf <- buf
  end

let u8 w v =
  ensure w 1;
  if w.write then Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xff));
  w.len <- w.len + 1

let u32 w v =
  ensure w 4;
  if w.write then begin
    Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set w.buf (w.len + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set w.buf (w.len + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set w.buf (w.len + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))
  end;
  w.len <- w.len + 4

(* LEB128-style varint over the int's 63-bit representation: logical
   shifts, so negative ints round-trip (as 9-byte encodings).  Protocol
   fields are non-negative, hence almost always 1–2 bytes. *)
let varint w v =
  let v = ref v in
  let continue_ = ref true in
  while !continue_ do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      u8 w b;
      continue_ := false
    end
    else u8 w (b lor 0x80)
  done

let raw_string w s =
  let n = String.length s in
  ensure w n;
  if w.write then Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let string w s =
  varint w (String.length s);
  raw_string w s

let patch_u32 w ~pos v =
  if not w.write then invalid_arg "Buf.patch_u32: counting writer";
  if pos < 0 || pos + 4 > w.len then invalid_arg "Buf.patch_u32: out of range";
  Bytes.unsafe_set w.buf pos (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set w.buf (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set w.buf (pos + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set w.buf (pos + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

(* Reader *)

exception Short
exception Bad of string

type r = { rbuf : Bytes.t; mutable pos : int; limit : int }

let reader buf ~pos ~len =
  if pos < 0 || len < 0 || len > Bytes.length buf - pos then
    invalid_arg "Buf.reader: region out of bounds";
  { rbuf = buf; pos; limit = pos + len }

let remaining r = r.limit - r.pos
let at_end r = r.pos = r.limit

let r_u8 r =
  if r.pos >= r.limit then raise Short;
  let v = Char.code (Bytes.unsafe_get r.rbuf r.pos) in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  if r.pos + 4 > r.limit then raise Short;
  let g i = Char.code (Bytes.unsafe_get r.rbuf (r.pos + i)) in
  let v = g 0 lor (g 1 lsl 8) lor (g 2 lsl 16) lor (g 3 lsl 24) in
  r.pos <- r.pos + 4;
  v

let r_varint r =
  let v = ref 0 in
  let shift = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if !shift > 56 then raise (Bad "varint too long");
    let b = r_u8 r in
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue_ := false
  done;
  !v

let r_raw_string r n =
  if n < 0 then raise (Bad "negative length");
  if r.pos + n > r.limit then raise Short;
  let s = Bytes.sub_string r.rbuf r.pos n in
  r.pos <- r.pos + n;
  s

let r_string r = r_raw_string r (r_varint r)
