(* Tests for Blockdev.Image: device dump/restore across devices, including
   a full file system surviving the trip into a replicated device. *)

module Mem = Blockdev.Mem_device
module Block = Blockdev.Block
module Hfs_mem = Fs.Hier_fs.Make (Mem)
module Hfs_rel = Fs.Hier_fs.Make (Blockrep.Reliable_device)

let temp () = Filename.temp_file "blockrep" ".img"

let ok_or_fail = function Ok v -> v | Error msg -> Alcotest.failf "image: %s" msg

let fs_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fs: %s" (Fs.Fs_core.error_to_string e)

let test_save_load_roundtrip () =
  let dev = Mem.create ~capacity:16 in
  ignore (Mem.write_block dev 3 (Block.of_string "three"));
  ignore (Mem.write_block dev 15 (Block.of_string "fifteen"));
  let path = temp () in
  ok_or_fail (Blockdev.Image.save (module Mem) dev path);
  let copy = ok_or_fail (Blockdev.Image.load_mem path) in
  Alcotest.(check int) "capacity" 16 (Mem.capacity copy);
  (match Mem.read_block copy 3 with
  | Some b -> Alcotest.(check string) "block 3" "three" (String.sub (Block.to_string b) 0 5)
  | None -> Alcotest.fail "read failed");
  (match Mem.read_block copy 0 with
  | Some b -> Alcotest.(check bool) "untouched block zero" true (Block.equal b Block.zero)
  | None -> Alcotest.fail "read failed");
  Sys.remove path

let test_restore_capacity_mismatch () =
  let dev = Mem.create ~capacity:8 in
  let path = temp () in
  ok_or_fail (Blockdev.Image.save (module Mem) dev path);
  let other = Mem.create ~capacity:9 in
  (match Blockdev.Image.restore (module Mem) other path with
  | Error msg -> Alcotest.(check bool) "explains mismatch" true (String.length msg > 0)
  | Ok () -> Alcotest.fail "restored into wrong capacity");
  Sys.remove path

let test_bad_magic () =
  let path = temp () in
  let oc = open_out_bin path in
  output_string oc "this is not an image";
  close_out oc;
  (match Blockdev.Image.load_mem path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  Sys.remove path

let test_truncated_image () =
  let dev = Mem.create ~capacity:4 in
  let path = temp () in
  ok_or_fail (Blockdev.Image.save (module Mem) dev path);
  (* Chop the tail off. *)
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full - 600));
  close_out oc;
  (match Blockdev.Image.load_mem path with
  | Error msg -> Alcotest.(check bool) "mentions truncation" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "accepted a truncated image");
  Sys.remove path

let test_save_failed_device () =
  let dev = Mem.create ~capacity:4 in
  Mem.fail dev;
  let path = temp () in
  (match Blockdev.Image.save (module Mem) dev path with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dumped an unreadable device");
  Sys.remove path

let test_filesystem_travels_between_device_kinds () =
  (* Format a hierarchical fs on one disk, dump it, restore into a
     replicated device, and mount it there: byte-level compatibility. *)
  let disk = Mem.create ~capacity:128 in
  let fs = fs_ok (Hfs_mem.format disk) in
  fs_ok (Hfs_mem.mkdir_p fs "/etc");
  fs_ok (Hfs_mem.create fs "/etc/motd");
  fs_ok (Hfs_mem.write fs "/etc/motd" (Bytes.of_string "travelled"));
  let path = temp () in
  ok_or_fail (Blockdev.Image.save (module Mem) disk path);
  let reliable =
    Blockrep.Reliable_device.of_config
      (Blockrep.Config.make_exn ~scheme:Blockrep.Types.Naive_available_copy ~n_sites:3 ~n_blocks:128
         ~seed:1313 ())
  in
  ok_or_fail (Blockdev.Image.restore (module Blockrep.Reliable_device) reliable path);
  let fs2 = fs_ok (Hfs_rel.mount reliable) in
  Alcotest.(check string) "mounted on the replicated device" "travelled"
    (Bytes.to_string (fs_ok (Hfs_rel.read fs2 "/etc/motd")));
  fs_ok (Hfs_rel.fsck fs2);
  (* And back again. *)
  let path2 = temp () in
  ok_or_fail (Blockdev.Image.save (module Blockrep.Reliable_device) reliable path2);
  let disk2 = ok_or_fail (Blockdev.Image.load_mem path2) in
  let fs3 = fs_ok (Hfs_mem.mount disk2) in
  Alcotest.(check string) "round trip" "travelled" (Bytes.to_string (fs_ok (Hfs_mem.read fs3 "/etc/motd")));
  Sys.remove path;
  Sys.remove path2

let prop_image_roundtrip =
  QCheck.Test.make ~name:"image save/load preserves every block" ~count:30
    QCheck.(list_of_size (Gen.int_range 0 20) (pair (int_range 0 7) printable_string))
    (fun writes ->
      let dev = Mem.create ~capacity:8 in
      List.iter (fun (k, s) -> ignore (Mem.write_block dev k (Block.of_string s))) writes;
      let path = temp () in
      let result =
        match Blockdev.Image.save (module Mem) dev path with
        | Error _ -> false
        | Ok () -> (
            match Blockdev.Image.load_mem path with
            | Error _ -> false
            | Ok copy ->
                List.for_all
                  (fun k ->
                    match (Mem.read_block dev k, Mem.read_block copy k) with
                    | Some a, Some b -> Block.equal a b
                    | _ -> false)
                  (List.init 8 Fun.id))
      in
      Sys.remove path;
      result)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data = Out_channel.with_open_bin path (fun oc -> output_string oc data)

type mutation = Xor of int * int | Truncate of int | Append of string

let mutate image = function
  | Xor (pos, mask) ->
      let b = Bytes.of_string image in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
      Bytes.to_string b
  | Truncate len -> String.sub image 0 len
  | Append junk -> image ^ junk

let contents dev = List.init (Mem.capacity dev) (fun k -> Mem.read_block dev k)

let prop_mutated_image_refused =
  let dev = Mem.create ~capacity:4 in
  ignore (Mem.write_block dev 1 (Block.of_string "one"));
  ignore (Mem.write_block dev 3 (Block.of_string "three"));
  let path = temp () in
  ok_or_fail (Blockdev.Image.save (module Mem) dev path);
  let image = read_file path in
  Sys.remove path;
  let len = String.length image in
  let gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun pos mask -> Xor (pos, mask)) (int_bound (len - 1)) (int_range 1 255);
          map (fun n -> Truncate n) (int_bound (len - 1));
          map (fun s -> Append s) (string_size ~gen:char (int_range 1 8));
        ])
  in
  let print = function
    | Xor (pos, mask) -> Printf.sprintf "xor 0x%02x at %d" mask pos
    | Truncate n -> Printf.sprintf "truncate to %d" n
    | Append s -> Printf.sprintf "append %S" s
  in
  QCheck.Test.make ~name:"a mutated image is refused and restores nothing" ~count:300
    (QCheck.make ~print gen) (fun m ->
      let path = temp () in
      write_file path (mutate image m);
      let target = Mem.create ~capacity:4 in
      ignore (Mem.write_block target 1 (Block.of_string "target"));
      let before = contents target in
      let loaded = Blockdev.Image.load_mem path in
      let restored = Blockdev.Image.restore (module Mem) target path in
      Sys.remove path;
      Result.is_error loaded && Result.is_error restored
      && List.equal (Option.equal Block.equal) (contents target) before)

let () =
  Alcotest.run "image"
    [
      ( "image",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "capacity mismatch" `Quick test_restore_capacity_mismatch;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "truncated image" `Quick test_truncated_image;
          Alcotest.test_case "unreadable device" `Quick test_save_failed_device;
          Alcotest.test_case "fs travels between devices" `Quick
            test_filesystem_travels_between_device_kinds;
          QCheck_alcotest.to_alcotest prop_image_roundtrip;
          QCheck_alcotest.to_alcotest prop_mutated_image_refused;
        ] );
    ]
