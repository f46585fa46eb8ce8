open Perfbench

let pick = Alcotest.testable (fun ppf (p : Pct.pick) -> Fmt.pf ppf "%g/%d/%d" p.value p.samples p.beyond) ( = )
let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_tail_rule () =
  Alcotest.(check (option pick))
    "p99 of 1000 has 10 beyond" (Some { Pct.value = 990.0; samples = 1000; beyond = 10 })
    (Pct.select (ascending 1000) 0.99);
  Alcotest.(check (option pick)) "p99 of 999 has only 9 beyond" None (Pct.select (ascending 999) 0.99);
  Alcotest.(check (option pick))
    "p50 of 20" (Some { Pct.value = 10.0; samples = 20; beyond = 10 })
    (Pct.select (ascending 20) 0.5);
  Alcotest.(check (option pick)) "p50 of 19" None (Pct.select (ascending 19) 0.5);
  Alcotest.(check (option pick)) "empty" None (Pct.select [||] 0.5);
  Alcotest.check_raises "q outside (0,1)" (Invalid_argument "Pct.select: quantile must lie in (0, 1)")
    (fun () -> ignore (Pct.select (ascending 100) 1.0))

(* Virtual latencies take few distinct values; the mid-quantile moves
   smoothly as the share of slow samples crosses 1%, where a nearest-rank
   p99 would jump from one value to the next. *)
let test_mid_quantile () =
  let tied slow = Array.append (Array.make (1000 - slow) 2.0) (Array.make slow 2.5) in
  let p99 slow = Option.map (fun p -> p.Pct.value) (Pct.select_mid (tied slow) 0.99) in
  let nearest slow = Option.map (fun p -> p.Pct.value) (Pct.select (tied slow) 0.99) in
  Alcotest.(check (option (float 0.0))) "nearest rank at 1%" (Some 2.0) (nearest 10);
  Alcotest.(check (option (float 0.0))) "nearest rank at 1.1%" (Some 2.5) (nearest 11);
  (* 2.0 stands at mid-rank 0.4955 of 1000, 2.5 at 0.9955. *)
  Alcotest.(check (option (float 1e-9)))
    "mid-quantile at 0.9%" (Some (2.0 +. (0.5 *. (0.99 -. 0.4955) /. 0.5))) (p99 9);
  Alcotest.(check bool) "mid-quantile moves by less than a step" true
    (match (p99 9, p99 11) with Some a, Some b -> b -. a < 0.05 && b >= a | _ -> false);
  Alcotest.(check (option (float 1e-9)))
    "no ties: interpolates order statistics" (Some 990.5)
    (Option.map (fun p -> p.Pct.value) (Pct.select_mid (ascending 1000) 0.99));
  Alcotest.(check (option (float 1e-9)))
    "two halves" (Some 0.5)
    (Option.map (fun p -> p.Pct.value) (Pct.select_mid (Array.append (Array.make 11 0.0) (Array.make 11 1.0)) 0.5))

let test_percentile_sorts_a_copy () =
  let a = [| 3.0; 1.0; 2.0 |] in
  let s = Pct.sorted a in
  Alcotest.(check (array (float 0.0))) "sorted" [| 1.0; 2.0; 3.0 |] s;
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] a

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Pct.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Pct.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_fail_frac () =
  let o = { Outcome.issued = 100; ok = 60; timed_out = 10; gave_up = 5; rejected = 15; shed = 10 } in
  Alcotest.(check int) "every way but success fails" 40 (Outcome.failed o);
  Alcotest.(check (float 1e-12)) "fail_frac" 0.4 (Outcome.fail_frac o);
  Alcotest.(check (float 1e-12)) "ok_frac" 0.6 (Outcome.ok_frac o);
  let none = { Outcome.issued = 0; ok = 0; timed_out = 0; gave_up = 0; rejected = 0; shed = 0 } in
  let shed_only = { none with issued = 4; ok = 3; shed = 1 } in
  Alcotest.(check (float 1e-12)) "a shed op counts as failed" 0.25 (Outcome.fail_frac shed_only);
  Alcotest.(check bool) "sum" true
    (Outcome.add o shed_only = { Outcome.issued = 104; ok = 63; timed_out = 10; gave_up = 5; rejected = 15; shed = 11 });
  Alcotest.check_raises "nothing issued" (Invalid_argument "Outcome.fail_frac: nothing issued") (fun () ->
      ignore (Outcome.fail_frac none))

(* Wall time runs on while the process sleeps; CPU time does not, and a
   single-threaded process cannot burn more CPU than wall time. *)
let test_clock_split () =
  let (), sleep = Clock.time (fun () -> Unix.sleepf 0.2) in
  Alcotest.(check bool) "sleep advances wall" true (sleep.Clock.wall_s >= 0.19);
  Alcotest.(check bool) "sleep burns little CPU" true (sleep.Clock.cpu_s < 0.1);
  let (), spin =
    Clock.time (fun () ->
        let t0 = Clock.wall_ns () in
        while Clock.wall_ns () - t0 < 50_000_000 do
          ignore (Sys.opaque_identity (Array.make 16 0))
        done)
  in
  Alcotest.(check bool) "spin burns CPU" true (spin.Clock.cpu_s > 0.0);
  Alcotest.(check bool) "one thread: CPU <= wall" true (spin.Clock.cpu_s <= spin.Clock.wall_s +. 0.02);
  let a = Clock.wall_ns () in
  let b = Clock.wall_ns () in
  Alcotest.(check bool) "monotonic" true (b >= a)

let test_trace_self_time () =
  let t = Trace.create ~tid:3 () in
  let spin ns =
    let t0 = Clock.wall_ns () in
    while Clock.wall_ns () - t0 < ns do
      ()
    done
  in
  Trace.span t ~op:7 ~layer:"outer" "parent" (fun () ->
      spin 2_000_000;
      Trace.span t ~layer:"inner" "child" (fun () -> spin 3_000_000));
  let f = Trace.freeze t in
  match f.Trace.spans with
  | [ child; parent ] ->
      Alcotest.(check int) "child's parent" parent.Trace.id child.Trace.parent;
      Alcotest.(check int) "op id inherited" 7 child.Trace.op;
      Alcotest.(check int) "top level" (-1) parent.Trace.parent;
      let dur s = s.Trace.t1 - s.Trace.t0 in
      Alcotest.(check int) "self times add up to the parent's span"
        (dur parent)
        (List.fold_left (fun a (_, ns) -> a + ns) 0 f.Trace.self_ns);
      Alcotest.(check bool) "inner self is the child span" true
        (Float.equal (Trace.self_s f "inner") (float_of_int (dur child) *. 1e-9));
      Alcotest.(check bool) "outer self excludes the child" true (Trace.self_s f "outer" < Trace.self_s f "inner")
  | _ -> Alcotest.fail "expected two spans"

let test_json () =
  Alcotest.(check string) "shortest round trip" "0.1" (Json.num 0.1);
  Alcotest.(check string) "all digits" "0.30000000000000004" (Json.num (0.1 +. 0.2));
  Alcotest.(check string) "compact" {|{"a": [1, true, "x\"y"]}|}
    (Json.compact (Json.Obj [ ("a", Json.Arr [ Json.Int 1; Json.Bool true; Json.Str "x\"y" ]) ]));
  Alcotest.check_raises "nan" (Invalid_argument "Json.num: non-finite number") (fun () -> ignore (Json.num Float.nan))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "tail rule" `Quick test_percentile_tail_rule;
          Alcotest.test_case "mid-quantile" `Quick test_mid_quantile;
          Alcotest.test_case "sorted copy" `Quick test_percentile_sorts_a_copy;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ("outcome", [ Alcotest.test_case "fail_frac accounting" `Quick test_fail_frac ]);
      ("clock", [ Alcotest.test_case "wall/CPU split" `Quick test_clock_split ]);
      ("trace", [ Alcotest.test_case "self time" `Quick test_trace_self_time ]);
      ("json", [ Alcotest.test_case "writer" `Quick test_json ]);
    ]
