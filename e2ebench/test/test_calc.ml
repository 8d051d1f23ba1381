(* Tests for the benchmark's own arithmetic. *)

open E2ebench

let hist l = Calc.histogram_of_samples (Array.of_list l)
let range n = List.init n (fun i -> i + 1)

let test_percentiles () =
  let h = hist (List.rev (range 100)) in
  Alcotest.(check int) "p50" 50 (Calc.percentile h 50.);
  Alcotest.(check int) "p99" 99 (Calc.percentile h 99.);
  Alcotest.(check int) "p100" 100 (Calc.percentile h 100.);
  Alcotest.(check int) "p0.5 rounds up to the first rank" 1 (Calc.percentile h 0.5);
  let d = hist [ 7; 3; 7; 7; 3; 9 ] in
  Alcotest.(check (list (pair int int))) "runs" [ (3, 2); (7, 3); (9, 1) ] (Calc.runs d);
  Alcotest.(check int) "rank 3 of 6 is in the run of 7s" 7 (Calc.percentile d 50.);
  Alcotest.(check int) "rank 2 of 6 ends the run of 3s" 3 (Calc.percentile d 33.);
  Alcotest.check_raises "empty" (Invalid_argument "Calc.percentile: empty histogram") (fun () ->
      ignore (Calc.percentile (hist []) 50.))

let test_tail () =
  let tail n = Calc.tail_percentile (hist (range n)) in
  Alcotest.(check (option (float 0.))) "9 samples: none" None (tail 9);
  Alcotest.(check (option (float 0.))) "20 samples: median" (Some 50.) (tail 20);
  Alcotest.(check (option (float 0.))) "100 samples: p90" (Some 90.) (tail 100);
  Alcotest.(check (option (float 0.))) "999 samples: still p90" (Some 90.) (tail 999);
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 99.) (tail 1000);
  Alcotest.(check (option (float 0.))) "100000 samples: p99.99" (Some 99.99) (tail 100_000);
  let h = hist (range 1000) in
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (Calc.beyond h 99.);
  Alcotest.(check int) "one beyond p99.9 of 1000" 1 (Calc.beyond h 99.9)

let test_digest () =
  Alcotest.(check string) "order-free"
    (Calc.digest (hist [ 1; 2; 2; 5 ]))
    (Calc.digest (hist [ 2; 5; 1; 2 ]));
  Alcotest.(check bool) "multiplicity counts" false
    (Calc.digest (hist [ 1; 2; 5 ]) = Calc.digest (hist [ 1; 2; 2; 5 ]))

let test_residual () =
  let run_ns = 1_000_000 and children_ns = [ 150_000; 220_000; 30_000 ] in
  let r = Calc.residual_ns ~run_ns ~children_ns in
  Alcotest.(check int) "run minus children" 600_000 r;
  Alcotest.(check int) "parts sum to the run" run_ns (r + List.fold_left ( + ) 0 children_ns);
  Alcotest.(check int) "no children" run_ns (Calc.residual_ns ~run_ns ~children_ns:[])

let test_median () =
  Alcotest.(check (float 0.)) "odd" 3. (Calc.median [ 5.; 1.; 3. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Calc.median [ 4.; 1.; 2.; 3. ])

let test_ratios () =
  let r = Calc.report () in
  Calc.add r "events" ~unit:"count" 1000.;
  Calc.add r "run_s" ~unit:"s" 0.002;
  Calc.add r "zero" ~unit:"count" 0.;
  Calc.add_ratio r "ns_per_event" ~unit:"ns" ~scale:1e9 ~num:"run_s" ~den:"events" ();
  Calc.add_ratio r "overhead" ~unit:"fraction" ~offset:(-1.) ~num:"events" ~den:"events" ();
  Calc.add_ratio r "per_zero" ~unit:"ns" ~num:"events" ~den:"zero" ();
  Alcotest.(check (float 1e-9)) "scaled" 2000. (Calc.value r "ns_per_event");
  Alcotest.(check (float 0.)) "offset" 0. (Calc.value r "overhead");
  Alcotest.(check (float 0.)) "zero base" 0. (Calc.value r "per_zero");
  Alcotest.check_raises "base must come first"
    (Invalid_argument "Calc.add_ratio: bad needs missing and events first") (fun () ->
      Calc.add_ratio r "bad" ~unit:"x" ~num:"missing" ~den:"events" ());
  Alcotest.check_raises "names are unique" (Invalid_argument "Calc.add: duplicate metric events")
    (fun () -> Calc.add r "events" ~unit:"count" 1.);
  let names = List.map (fun (n, _, _) -> n) (Calc.metrics r) in
  List.iter
    (fun (ratio, (num, den)) ->
      Alcotest.(check bool) (ratio ^ " reported") true (List.mem ratio names);
      Alcotest.(check bool) (ratio ^ " numerator reported") true (List.mem num names);
      Alcotest.(check bool) (ratio ^ " base reported") true (List.mem den names))
    (Calc.bases r);
  Alcotest.(check int) "three ratios" 3 (List.length (Calc.bases r))

let test_json () =
  let r = Calc.report () in
  Calc.add r "run_s" ~unit:"s" 1.2034567890123;
  Alcotest.(check string) "every digit kept"
    "{\"run_s\": {\"value\": 1.2034567890123, \"unit\": \"s\"}}" (Calc.to_json r)

let () =
  Alcotest.run "e2ebench"
    [
      ( "calc",
        [
          Alcotest.test_case "percentiles from the histogram" `Quick test_percentiles;
          Alcotest.test_case "highest percentile with ten beyond" `Quick test_tail;
          Alcotest.test_case "histogram digest" `Quick test_digest;
          Alcotest.test_case "residual is run minus timed children" `Quick test_residual;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "ratios come with their bases" `Quick test_ratios;
          Alcotest.test_case "json" `Quick test_json;
        ] );
    ]
