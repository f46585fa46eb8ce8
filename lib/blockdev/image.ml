let ( let* ) = Result.bind

(* The frame's payload length is a u32: the capacity field plus the
   blocks must fit in it. *)
let max_capacity = (0xFFFF_FFFF - 4) / Block.size

let save (type dev) (module Dev : Device_intf.S with type t = dev) (dev : dev) path =
  let capacity = Dev.capacity dev in
  if capacity > max_capacity then
    Error (Printf.sprintf "%d blocks do not fit in one image (at most %d)" capacity max_capacity)
  else
    let rec read_all k acc =
      if k >= capacity then Ok (List.rev acc)
      else
        match Dev.read_block dev k with
        | Some block -> read_all (k + 1) (Block.to_string block :: acc)
        | None -> Error (Printf.sprintf "block %d unreadable" k)
    in
    let* blocks = read_all 0 [] in
    (* [Frame.encode] runs the emitter twice (count, then write), so it
       only reads the blocks gathered above. *)
    let frame =
      Codec.Frame.encode ~payload:(fun w ->
          Codec.Buf.u32 w capacity;
          List.iter (Codec.Buf.raw_string w) blocks)
    in
    match Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc frame) with
    | exception Sys_error msg -> Error msg
    | () -> Ok ()

(* Every check happens here, before the caller writes a single block. *)
let read_blocks path =
  let* data =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | s -> Ok (Bytes.of_string s)
  in
  match Codec.Frame.decode data with
  | Error e -> Error (Format.asprintf "not a device image: %a" Codec.Frame.pp_error e)
  | Ok r -> (
      (* Once the length is checked the block reads cannot run short; only
         a payload too short for the capacity field can raise. *)
      match Codec.Buf.r_u32 r with
      | exception (Codec.Buf.Short | Codec.Buf.Bad _) -> Error "truncated image payload"
      | capacity when capacity < 1 -> Error "corrupt image capacity"
      | capacity when Codec.Buf.remaining r <> capacity * Block.size ->
          Error
            (Printf.sprintf "image of %d blocks holds %d block bytes, expected %d" capacity
               (Codec.Buf.remaining r) (capacity * Block.size))
      | capacity ->
          Ok (Array.init capacity (fun _ -> Block.of_string (Codec.Buf.r_raw_string r Block.size))))

let fill (type dev) (module Dev : Device_intf.S with type t = dev) (dev : dev) blocks =
  let rec go k =
    if k >= Array.length blocks then Ok ()
    else if Dev.write_block dev k blocks.(k) then go (k + 1)
    else Error (Printf.sprintf "device refused block %d" k)
  in
  go 0

let restore (type dev) (module Dev : Device_intf.S with type t = dev) (dev : dev) path =
  let* blocks = read_blocks path in
  if Array.length blocks <> Dev.capacity dev then
    Error
      (Printf.sprintf "image holds %d blocks but the device has %d" (Array.length blocks)
         (Dev.capacity dev))
  else fill (module Dev) dev blocks

let load_mem path =
  let* blocks = read_blocks path in
  let dev = Mem_device.create ~capacity:(Array.length blocks) in
  let* () = fill (module Mem_device) dev blocks in
  Ok dev
