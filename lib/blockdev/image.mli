(** Device images: dump any block device to a host file and restore it.

    Lets a simulated device outlive a process — format a file system into
    an image, inspect it later, restore it into a fresh (even replicated)
    device.  An image file is exactly one {!Codec.Frame}, so it carries
    the frame's magic, length and CRC-32; the frame payload is

    {v
    bytes 0..3   capacity in blocks, u32le (at least 1)
    then capacity * Block.size raw block bytes
    v} *)

val save :
  (module Device_intf.S with type t = 'dev) -> 'dev -> string -> (unit, string) result
(** [save (module Dev) dev path] reads every block and writes the image.
    Fails (with a message) on IO errors, if any block is unreadable
    (e.g. a reliable device with no available copy), or if the device is
    too large for one frame; the file is not touched unless every block
    was read. *)

val restore :
  (module Device_intf.S with type t = 'dev) -> 'dev -> string -> (unit, string) result
(** [restore (module Dev) dev path] writes the image's blocks into an
    existing device of exactly the same capacity.  The whole image is
    validated (frame, capacity, payload length) before any block is
    written, so a damaged image leaves the device untouched. *)

val load_mem : string -> (Mem_device.t, string) result
(** Convenience: build a fresh in-memory device from an image. *)
