type t = { issued : int; ok : int; timed_out : int; gave_up : int; rejected : int; shed : int }

let add a b =
  {
    issued = a.issued + b.issued;
    ok = a.ok + b.ok;
    timed_out = a.timed_out + b.timed_out;
    gave_up = a.gave_up + b.gave_up;
    rejected = a.rejected + b.rejected;
    shed = a.shed + b.shed;
  }

let failed t = t.timed_out + t.gave_up + t.rejected + t.shed

let fail_frac t =
  if t.issued <= 0 then invalid_arg "Outcome.fail_frac: nothing issued";
  float_of_int (failed t) /. float_of_int t.issued

let ok_frac t = 1.0 -. fail_frac t

let of_degradation (d : Blockrep.Reliable_device.degradation) =
  {
    issued = d.requests;
    ok = d.succeeded;
    timed_out = d.timeouts;
    gave_up = d.gave_up;
    rejected = d.rejected;
    shed = d.shed;
  }
