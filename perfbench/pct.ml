type pick = { value : float; samples : int; beyond : int }

let min_beyond = 10

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Nearest rank: the smallest sample with at least a share [q] of the
   samples at or below it.  The epsilon keeps [0.99 *. 1000.] from
   rounding up a rank. *)
let rank n q = max 0 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) - 1)

let select sorted q =
  if not (q > 0.0 && q < 1.0) then invalid_arg "Pct.select: quantile must lie in (0, 1)";
  let n = Array.length sorted in
  if n = 0 then None
  else
    let i = rank n q in
    let beyond = n - 1 - i in
    if beyond < min_beyond then None else Some { value = sorted.(i); samples = n; beyond }

(* Parzen's mid-quantile: each distinct value sits at the middle of the
   ranks its copies occupy, and the quantile interpolates linearly
   between neighbouring distinct values.  On data without ties this is
   ordinary interpolation between order statistics. *)
let mid_quantile sorted q =
  let n = Array.length sorted in
  let fn = float_of_int n in
  (* Walk the runs of equal values, keeping the previous run's value and
     mid-rank (as a share of n). *)
  let rec go i prev =
    if i >= n then fst prev
    else begin
      let v = sorted.(i) in
      let j = ref i in
      while !j < n && Float.equal sorted.(!j) v do
        incr j
      done;
      let mid = (float_of_int i +. (float_of_int (!j - i) /. 2.0)) /. fn in
      if q <= mid then
        match prev with
        | _, m when m < 0.0 -> v
        | pv, pm -> pv +. ((v -. pv) *. (q -. pm) /. (mid -. pm))
      else go !j (v, mid)
    end
  in
  go 0 (nan, -1.0)

let select_mid sorted q =
  match select sorted q with None -> None | Some p -> Some { p with value = mid_quantile sorted q }

let median = function
  | [] -> invalid_arg "Pct.median: no values"
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
