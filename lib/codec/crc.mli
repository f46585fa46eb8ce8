(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), computed slicing-by-8:
    eight input bytes per step through one write-once 8×256 table, with
    the same digest as the classic byte-at-a-time algorithm
    ([digest_string "123456789" = 0xCBF43926]).

    Digests are returned as non-negative ints in [0, 0xFFFFFFFF] so they
    can live in int arrays and be compared structurally.  Any single-bit
    flip in the digested region changes the digest, which is what the
    byte-accurate bitrot injection in [Blockdev.Durable_store] relies
    on. *)

val digest_sub : Bytes.t -> pos:int -> len:int -> int
(** CRC-32 of [len] bytes of [buf] starting at [pos].  Raises
    [Invalid_argument] if the region is out of bounds. *)

val digest_bytes : Bytes.t -> int
(** CRC-32 of the whole buffer. *)

val digest_string : string -> int
(** CRC-32 of the whole string. *)
