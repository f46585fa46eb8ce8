(* Two host clocks, kept apart on purpose.  [Sys.time] (and everything
   built on it) is process CPU time summed over every domain, so it can
   never show a multicore speed-up; wall time comes from the monotonic
   clock instead, and CPU time is reported beside it, never in its
   place. *)

let wall_ns () = Int64.to_int (Monotonic_clock.now ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type mark = { wall0 : int; cpu0 : float }
type lap = { wall_s : float; cpu_s : float }

let start () = { wall0 = wall_ns (); cpu0 = cpu_s () }
let stop m = { wall_s = float_of_int (wall_ns () - m.wall0) *. 1e-9; cpu_s = cpu_s () -. m.cpu0 }

let time f =
  let m = start () in
  let r = f () in
  (r, stop m)
