(* Tests for Util: Prng, Dist, Stats. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tolerance expected actual = Alcotest.(check (float tolerance)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Util.Prng.create 42 and b = Util.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Prng.bits64 a) (Util.Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Util.Prng.create 1 and b = Util.Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Util.Prng.bits64 a <> Util.Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds, different streams" true !differs

let test_prng_copy_independent () =
  let a = Util.Prng.create 7 in
  ignore (Util.Prng.bits64 a);
  let b = Util.Prng.copy a in
  let xa = Util.Prng.bits64 a in
  let xb = Util.Prng.bits64 b in
  Alcotest.(check int64) "copy continues the same stream" xa xb;
  ignore (Util.Prng.bits64 a);
  (* advancing a does not advance b *)
  let xa2 = Util.Prng.bits64 a and xb2 = Util.Prng.bits64 b in
  Alcotest.(check bool) "streams advance independently" true (xa2 <> xb2 || xa2 = xb2)

let test_prng_split_independent () =
  let parent = Util.Prng.create 11 in
  let child = Util.Prng.split parent in
  (* a split child with the same immediate state as a sibling must not
     replay the parent's stream *)
  let child_vals = List.init 10 (fun _ -> Util.Prng.bits64 child) in
  let parent_vals = List.init 10 (fun _ -> Util.Prng.bits64 parent) in
  Alcotest.(check bool) "child stream differs from parent" true (child_vals <> parent_vals)

let test_prng_derive_distinct_and_deterministic () =
  let seen = Hashtbl.create 256 in
  for k = 0 to 127 do
    let s = Util.Prng.derive ~seed:41 k in
    Alcotest.(check int) "derive is a pure function" s (Util.Prng.derive ~seed:41 k);
    (match Hashtbl.find_opt seen s with
    | Some k' -> Alcotest.failf "derive collision: k=%d and k=%d both map to %d" k' k s
    | None -> ());
    Hashtbl.replace seen s k
  done;
  Alcotest.(check bool) "different roots, different derivations" true
    (Util.Prng.derive ~seed:41 0 <> Util.Prng.derive ~seed:42 0)

let test_prng_premix_decorrelates_derived_streams () =
  (* Stream version 2 regression: with raw (un-premixed) seeding, the
     k-th derived stream was the root stream shifted by k — every lane of
     a sharded run replayed its neighbour.  No derived stream may appear
     as a contiguous window of another. *)
  let stream k n =
    let g = Util.Prng.create (Util.Prng.derive ~seed:41 k) in
    Array.init n (fun _ -> Util.Prng.bits64 g)
  in
  let a = stream 0 40 in
  let b = stream 1 10 in
  for off = 0 to Array.length a - Array.length b do
    let matches = ref true in
    for i = 0 to Array.length b - 1 do
      if not (Int64.equal a.(off + i) b.(i)) then matches := false
    done;
    if !matches then Alcotest.failf "derived stream 1 replays stream 0 at offset %d" off
  done

let test_float_range () =
  let g = Util.Prng.create 3 in
  for _ = 1 to 10_000 do
    let u = Util.Prng.float g in
    if u < 0.0 || u >= 1.0 then Alcotest.failf "float out of [0,1): %f" u
  done

let test_float_pos_never_zero () =
  let g = Util.Prng.create 5 in
  for _ = 1 to 10_000 do
    if Util.Prng.float_pos g <= 0.0 then Alcotest.fail "float_pos returned a non-positive value"
  done

let test_int_bounds () =
  let g = Util.Prng.create 13 in
  for _ = 1 to 10_000 do
    let v = Util.Prng.int g 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v
  done

let test_int_rejects_bad_bound () =
  let g = Util.Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Util.Prng.int g 0))

let test_int_covers_all_values () =
  let g = Util.Prng.create 17 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Util.Prng.int g 5) <- true
  done;
  Alcotest.(check bool) "all residues reached" true (Array.for_all Fun.id seen)

let test_float_mean () =
  let g = Util.Prng.create 23 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Util.Prng.float g
  done;
  check_close "uniform mean near 0.5" 0.01 0.5 (!sum /. float_of_int n)

let test_shuffle_permutation () =
  let g = Util.Prng.create 31 in
  let a = Array.init 20 Fun.id in
  Util.Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 20 Fun.id) sorted

let test_pick () =
  let g = Util.Prng.create 37 in
  let l = [ 1; 2; 3 ] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "pick yields a member" true (List.mem (Util.Prng.pick g l) l)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty list") (fun () ->
      ignore (Util.Prng.pick g []))

(* ------------------------------------------------------------------ *)
(* Dist                                                                *)
(* ------------------------------------------------------------------ *)

let sample_mean d n seed =
  let g = Util.Prng.create seed in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Util.Dist.sample d g
  done;
  !sum /. float_of_int n

let test_exponential_mean () =
  check_close "exp(2) mean 0.5" 0.02 0.5 (sample_mean (Util.Dist.Exponential 2.0) 100_000 41)

let test_erlang_mean () =
  check_close "erlang(4, 2) mean 2.0" 0.05 2.0 (sample_mean (Util.Dist.Erlang (4, 2.0)) 100_000 43)

let test_uniform_mean () =
  check_close "uniform[2,6) mean 4" 0.05 4.0 (sample_mean (Util.Dist.Uniform (2.0, 6.0)) 100_000 47)

let test_constant () =
  let g = Util.Prng.create 1 in
  check_float "constant" 3.25 (Util.Dist.sample (Util.Dist.Constant 3.25) g)

let test_analytic_means () =
  check_float "exp mean" 0.25 (Util.Dist.mean (Util.Dist.Exponential 4.0));
  check_float "erlang mean" 1.5 (Util.Dist.mean (Util.Dist.Erlang (3, 2.0)));
  check_float "uniform mean" 2.0 (Util.Dist.mean (Util.Dist.Uniform (1.0, 3.0)));
  check_float "constant mean" 9.0 (Util.Dist.mean (Util.Dist.Constant 9.0))

let test_cv () =
  check_float "exp cv" 1.0 (Util.Dist.coefficient_of_variation (Util.Dist.Exponential 3.0));
  check_float "erlang4 cv" 0.5 (Util.Dist.coefficient_of_variation (Util.Dist.Erlang (4, 1.0)));
  check_float "constant cv" 0.0 (Util.Dist.coefficient_of_variation (Util.Dist.Constant 2.0))

let test_validate () =
  let bad d = match Util.Dist.validate d with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "negative constant rejected" true (bad (Util.Dist.Constant (-1.0)));
  Alcotest.(check bool) "zero-rate exp rejected" true (bad (Util.Dist.Exponential 0.0));
  Alcotest.(check bool) "erlang k=0 rejected" true (bad (Util.Dist.Erlang (0, 1.0)));
  Alcotest.(check bool) "inverted uniform rejected" true (bad (Util.Dist.Uniform (2.0, 1.0)));
  Alcotest.(check bool) "nan constant rejected" true (bad (Util.Dist.Constant Float.nan));
  Alcotest.(check bool) "infinite rate rejected" true (bad (Util.Dist.Exponential Float.infinity));
  Alcotest.(check bool) "infinite uniform rejected" true (bad (Util.Dist.Uniform (0.0, Float.infinity)));
  Alcotest.(check bool) "good exp accepted" false (bad (Util.Dist.Exponential 1.0))

let test_erlang_concentration () =
  (* Erlang-16 is much more concentrated than an exponential of equal mean. *)
  let g = Util.Prng.create 51 in
  let below_half d =
    let count = ref 0 in
    for _ = 1 to 10_000 do
      if Util.Dist.sample d g < 0.5 then incr count
    done;
    float_of_int !count /. 10_000.0
  in
  let exp_frac = below_half (Util.Dist.Exponential 1.0) in
  let erl_frac = below_half (Util.Dist.Erlang (16, 16.0)) in
  Alcotest.(check bool)
    (Printf.sprintf "erlang mass near mean (exp %.3f vs erl %.3f)" exp_frac erl_frac)
    true (erl_frac < exp_frac)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Util.Stats.create () in
  List.iter (Util.Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Util.Stats.count s);
  check_float "mean" 2.5 (Util.Stats.mean s);
  check_close "variance" 1e-9 (5.0 /. 3.0) (Util.Stats.variance s);
  check_float "min" 1.0 (Util.Stats.min_value s);
  check_float "max" 4.0 (Util.Stats.max_value s)

let test_stats_empty () =
  let s = Util.Stats.create () in
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Util.Stats.mean s))

let test_stats_merge () =
  let a = Util.Stats.create () and b = Util.Stats.create () and whole = Util.Stats.create () in
  let xs = [ 5.0; 1.0; 3.0 ] and ys = [ 2.0; 8.0; 13.0; 1.0 ] in
  List.iter (Util.Stats.add a) xs;
  List.iter (Util.Stats.add b) ys;
  List.iter (Util.Stats.add whole) (xs @ ys);
  let merged = Util.Stats.merge a b in
  Alcotest.(check int) "merged count" (Util.Stats.count whole) (Util.Stats.count merged);
  check_close "merged mean" 1e-9 (Util.Stats.mean whole) (Util.Stats.mean merged);
  check_close "merged variance" 1e-9 (Util.Stats.variance whole) (Util.Stats.variance merged)

let test_timed_average () =
  let t = Util.Stats.Timed.create ~at:0.0 ~value:1.0 in
  Util.Stats.Timed.update t ~at:4.0 ~value:0.0;
  Util.Stats.Timed.update t ~at:6.0 ~value:1.0;
  check_float "integral" 8.0 (Util.Stats.Timed.integral t ~upto:10.0);
  check_float "average" 0.8 (Util.Stats.Timed.average t ~upto:10.0)

let test_timed_monotonic () =
  let t = Util.Stats.Timed.create ~at:5.0 ~value:1.0 in
  Alcotest.check_raises "time going backwards"
    (Invalid_argument "Stats.Timed.update: time went backwards") (fun () ->
      Util.Stats.Timed.update t ~at:4.0 ~value:0.0)

let test_histogram () =
  let h = Util.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Util.Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.5; 42.0; -3.0 ];
  let counts = Util.Stats.Histogram.counts h in
  Alcotest.(check int) "first bin holds only in-range samples" 1 counts.(0);
  Alcotest.(check int) "second bin" 2 counts.(1);
  Alcotest.(check int) "last bin holds only in-range samples" 1 counts.(9);
  Alcotest.(check int) "total counts every sample" 6 (Util.Stats.Histogram.total h);
  Alcotest.(check int) "underflow" 1 (Util.Stats.Histogram.underflow h);
  Alcotest.(check int) "overflow" 1 (Util.Stats.Histogram.overflow h);
  Alcotest.(check int) "in_range" 4 (Util.Stats.Histogram.in_range h)

let test_histogram_outliers_excluded_from_quantile () =
  (* Ten in-range samples spread over [0,100), then a burst of far-out
     outliers on each side.  Under the old clamping behaviour the outliers
     piled into the edge bins and dragged the median; now the quantiles
     must be computed over the in-range samples alone. *)
  let h = Util.Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~bins:100 in
  for i = 0 to 9 do
    Util.Stats.Histogram.add h ((float_of_int i *. 10.0) +. 5.0)
  done;
  let clean_median = Util.Stats.Histogram.quantile h 0.5 in
  for _ = 1 to 50 do
    Util.Stats.Histogram.add h 1.0e6;
    Util.Stats.Histogram.add h (-1.0e6)
  done;
  check_close "median unmoved by outliers" 1e-9 clean_median
    (Util.Stats.Histogram.quantile h 0.5);
  Alcotest.(check int) "overflow counted" 50 (Util.Stats.Histogram.overflow h);
  Alcotest.(check int) "underflow counted" 50 (Util.Stats.Histogram.underflow h);
  Alcotest.(check int) "in_range stable" 10 (Util.Stats.Histogram.in_range h)

let test_histogram_empty_after_outliers () =
  let h = Util.Stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 in
  Util.Stats.Histogram.add h 5.0;
  Util.Stats.Histogram.add h (-5.0);
  Alcotest.(check bool)
    "quantile is nan with no in-range samples" true
    (Float.is_nan (Util.Stats.Histogram.quantile h 0.5))

let test_histogram_quantile () =
  let h = Util.Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~bins:100 in
  for i = 1 to 100 do
    Util.Stats.Histogram.add h (float_of_int i -. 0.5)
  done;
  check_close "median near 50" 1.5 50.0 (Util.Stats.Histogram.quantile h 0.5);
  check_close "p90 near 90" 1.5 90.0 (Util.Stats.Histogram.quantile h 0.9)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_prng_int_in_bounds =
  QCheck.Test.make ~name:"prng int stays within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Util.Prng.create seed in
      let v = Util.Prng.int g bound in
      v >= 0 && v < bound)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"sample mean lies within [min,max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let s = Util.Stats.create () in
      List.iter (Util.Stats.add s) xs;
      let m = Util.Stats.mean s in
      m >= Util.Stats.min_value s -. 1e-9 && m <= Util.Stats.max_value s +. 1e-9)

let prop_merge_matches_whole =
  QCheck.Test.make ~name:"merge equals single-pass stats" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 30) (float_range (-100.0) 100.0))
        (list_of_size (Gen.int_range 1 30) (float_range (-100.0) 100.0)))
    (fun (xs, ys) ->
      let a = Util.Stats.create () and b = Util.Stats.create () and w = Util.Stats.create () in
      List.iter (Util.Stats.add a) xs;
      List.iter (Util.Stats.add b) ys;
      List.iter (Util.Stats.add w) (xs @ ys);
      let m = Util.Stats.merge a b in
      Float.abs (Util.Stats.mean m -. Util.Stats.mean w) < 1e-6)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "derive distinct" `Quick test_prng_derive_distinct_and_deterministic;
          Alcotest.test_case "premix decorrelates" `Quick
            test_prng_premix_decorrelates_derived_streams;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float_pos positive" `Quick test_float_pos_never_zero;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_int_rejects_bad_bound;
          Alcotest.test_case "int coverage" `Quick test_int_covers_all_values;
          Alcotest.test_case "float mean" `Slow test_float_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "pick" `Quick test_pick;
          QCheck_alcotest.to_alcotest prop_prng_int_in_bounds;
        ] );
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "erlang mean" `Slow test_erlang_mean;
          Alcotest.test_case "uniform mean" `Slow test_uniform_mean;
          Alcotest.test_case "constant" `Quick test_constant;
          Alcotest.test_case "analytic means" `Quick test_analytic_means;
          Alcotest.test_case "coefficients of variation" `Quick test_cv;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "erlang concentration" `Quick test_erlang_concentration;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "timed average" `Quick test_timed_average;
          Alcotest.test_case "timed monotonicity" `Quick test_timed_monotonic;
          Alcotest.test_case "histogram binning" `Quick test_histogram;
          Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
          Alcotest.test_case "histogram outliers excluded from quantile" `Quick
            test_histogram_outliers_excluded_from_quantile;
          Alcotest.test_case "histogram all-outlier quantile is nan" `Quick
            test_histogram_empty_after_outliers;
          QCheck_alcotest.to_alcotest prop_stats_mean_bounded;
          QCheck_alcotest.to_alcotest prop_merge_matches_whole;
        ] );
    ]
