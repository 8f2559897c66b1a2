module Stats = Dangers_util.Stats

let checkf = Alcotest.check (Alcotest.float 1e-9)
let checkb = Alcotest.check Alcotest.bool

let test_empty () =
  let s = Stats.create () in
  Alcotest.check Alcotest.int "count" 0 (Stats.count s);
  checkf "mean" 0. (Stats.mean s);
  checkf "variance" 0. (Stats.variance s);
  checkf "total" 0. (Stats.total s)

let test_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.check Alcotest.int "count" 8 (Stats.count s);
  checkf "mean" 5.0 (Stats.mean s);
  (* Sample variance of this classic set: 32/7. *)
  checkf "variance" (32. /. 7.) (Stats.variance s);
  checkf "min" 2. (Stats.min s);
  checkf "max" 9. (Stats.max s);
  checkf "total" 40. (Stats.total s)

let test_confidence_shrinks () =
  let wide = Stats.create () and narrow = Stats.create () in
  for i = 1 to 10 do
    Stats.add wide (float_of_int (i mod 3))
  done;
  for i = 1 to 1000 do
    Stats.add narrow (float_of_int (i mod 3))
  done;
  checkb "more samples, tighter CI" true
    (Stats.confidence95 narrow < Stats.confidence95 wide)

let test_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  checkf "median" 3. (Stats.percentile xs ~p:0.5);
  checkf "min" 1. (Stats.percentile xs ~p:0.);
  checkf "max" 5. (Stats.percentile xs ~p:1.);
  checkf "interpolated p25" 2. (Stats.percentile xs ~p:0.25);
  let ends = [| 0.; 100. |] in
  checkf "p0 of two" 0. (Stats.percentile ends ~p:0.);
  checkf "p50 interpolates" 50. (Stats.percentile ends ~p:0.5);
  checkf "p100 of two" 100. (Stats.percentile ends ~p:1.);
  checkf "single sample" 7. (Stats.percentile [| 7. |] ~p:0.99);
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] ~p:0.5))

let test_percentile_nan_and_duplicates () =
  (* Float.compare is total: NaN sorts below every number, so a
     NaN-polluted sample gives a pinned answer instead of a sort-order
     lottery (polymorphic compare happens to agree today, but this test
     keeps the behavior nailed down). *)
  let xs = [| 2.; Float.nan; 1. |] in
  checkb "p0 is the NaN" true (Float.is_nan (Stats.percentile xs ~p:0.));
  checkf "p1 unaffected by the NaN's position" 2. (Stats.percentile xs ~p:1.);
  let dup = [| 5.; 1.; 5.; 1. |] in
  checkf "median of duplicate pairs interpolates" 3.
    (Stats.percentile dup ~p:0.5);
  checkf "p0 with duplicates" 1. (Stats.percentile dup ~p:0.);
  checkf "p1 with duplicates" 5. (Stats.percentile dup ~p:1.)

let test_loglog_slope_exact () =
  (* y = 3 x^2 has slope exactly 2 in log-log space. *)
  let points = List.map (fun x -> (x, 3. *. (x ** 2.))) [ 1.; 2.; 4.; 8.; 16. ] in
  checkf "slope 2" 2. (Stats.loglog_slope points)

let test_loglog_slope_cubic () =
  let points = List.map (fun x -> (x, 0.5 *. (x ** 3.))) [ 1.; 3.; 9.; 27. ] in
  checkf "slope 3" 3. (Stats.loglog_slope points)

let test_loglog_rejects () =
  Alcotest.check_raises "non-positive rejected"
    (Invalid_argument "Stats.loglog_slope: coordinates must be positive")
    (fun () -> ignore (Stats.loglog_slope [ (1., 0.); (2., 1.) ]))

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"stats: welford mean equals arithmetic mean" ~count:300
      (list_of_size (Gen.int_range 1 100) (float_range (-1000.) 1000.))
      (fun xs ->
        let s = Stats.create () in
        List.iter (Stats.add s) xs;
        let expected = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
        Float.abs (Stats.mean s -. expected) < 1e-6 *. (1. +. Float.abs expected));
    Test.make ~name:"stats: variance non-negative" ~count:300
      (list_of_size (Gen.int_range 2 100) (float_range (-100.) 100.))
      (fun xs ->
        let s = Stats.create () in
        List.iter (Stats.add s) xs;
        Stats.variance s >= 0.);
    Test.make ~name:"stats: percentile monotone in p" ~count:200
      (pair
         (array_of_size (Gen.int_range 1 50) (float_range (-50.) 50.))
         (pair (float_range 0. 1.) (float_range 0. 1.)))
      (fun (xs, (p1, p2)) ->
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        Stats.percentile xs ~p:lo <= Stats.percentile xs ~p:hi +. 1e-9);
    Test.make ~name:"stats: percentile of a single point is that point"
      ~count:300
      (pair (float_range (-1e6) 1e6) (float_range 0. 1.))
      (fun (x, p) -> Stats.percentile [| x |] ~p = x);
    Test.make ~name:"stats: percentile hits min at p=0 and max at p=1"
      ~count:300
      (array_of_size (Gen.int_range 1 60) (float_range (-1e3) 1e3))
      (fun xs ->
        let sorted = Array.copy xs in
        Array.sort compare sorted;
        Stats.percentile xs ~p:0. = sorted.(0)
        && Stats.percentile xs ~p:1. = sorted.(Array.length xs - 1));
    Test.make ~name:"stats: loglog_slope rejects duplicate x" ~count:200
      (pair (float_range 0.1 100.)
         (list_of_size (Gen.int_range 2 10) (float_range 0.1 100.)))
      (fun (x, ys) ->
        (* Shrinking may drop below the generator's minimum length. *)
        QCheck.assume (List.length ys >= 2);
        (* Every point shares one x: the fit is a vertical line. *)
        try
          ignore (Stats.loglog_slope (List.map (fun y -> (x, y)) ys));
          false
        with Invalid_argument m -> m = "Stats.loglog_slope: degenerate x values");
    Test.make ~name:"stats: loglog_slope unchanged by doubling the sample"
      ~count:200
      (list_of_size (Gen.int_range 2 20)
         (pair (float_range 0.1 100.) (float_range 0.1 100.)))
      (fun points ->
        let xs = List.map fst points in
        QCheck.assume (List.exists (fun x -> x <> List.hd xs) (List.tl xs));
        let s1 = Stats.loglog_slope points in
        let s2 = Stats.loglog_slope (points @ points) in
        Float.abs (s1 -. s2) <= 1e-6 *. (1. +. Float.abs s1));
  ]

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "moments" `Quick test_moments;
    Alcotest.test_case "confidence shrinks" `Quick test_confidence_shrinks;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile nan and duplicates" `Quick
      test_percentile_nan_and_duplicates;
    Alcotest.test_case "loglog slope quadratic" `Quick test_loglog_slope_exact;
    Alcotest.test_case "loglog slope cubic" `Quick test_loglog_slope_cubic;
    Alcotest.test_case "loglog rejects non-positive" `Quick test_loglog_rejects;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
