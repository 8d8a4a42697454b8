(* Tests for the benchmark's own helpers: the order statistics its
   reports rest on, the metric-name rule and the JSON result writer. *)

open Perfbench_util

let feq = Alcotest.float 0.
let opt_feq = Alcotest.(option (float 0.))

let test_tail_percentile () =
  (* Ten samples must lie beyond the reported percentile. *)
  Alcotest.check opt_feq "19 samples: none" None (Stats.tail_percentile 19);
  Alcotest.check opt_feq "20 samples: p50" (Some 50.) (Stats.tail_percentile 20);
  Alcotest.check opt_feq "99 samples: p50" (Some 50.) (Stats.tail_percentile 99);
  Alcotest.check opt_feq "100 samples: p90" (Some 90.) (Stats.tail_percentile 100);
  Alcotest.check opt_feq "999 samples: p90" (Some 90.) (Stats.tail_percentile 999);
  Alcotest.check opt_feq "1000 samples: p99" (Some 99.) (Stats.tail_percentile 1000);
  Alcotest.check opt_feq "10000 samples: p99.9" (Some 99.9) (Stats.tail_percentile 10_000);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond 1000 99.)

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "p50" 50. (Stats.percentile a 50.);
  Alcotest.check feq "p99" 99. (Stats.percentile a 99.);
  Alcotest.check feq "p100" 100. (Stats.percentile a 100.);
  Alcotest.check feq "p1" 1. (Stats.percentile a 1.);
  Alcotest.check feq "one sample" 7. (Stats.percentile [| 7. |] 99.);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: no samples") (fun () ->
      ignore (Stats.percentile [||] 50.))

let test_median () =
  Alcotest.check feq "odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.check feq "even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |]);
  let a = [| 3.; 1.; 2. |] in
  ignore (Stats.median a);
  Alcotest.(check (array (float 0.))) "input untouched" [| 3.; 1.; 2. |] a

let test_quartiles () =
  (* Expected values are Python's statistics.quantiles(data, n=4). *)
  let q = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12)) in
  Alcotest.check q "two" (0.75, 1.5, 2.25) (Stats.quartiles [| 2.; 1. |]);
  Alcotest.check q "three" (1., 2., 3.) (Stats.quartiles [| 3.; 1.; 2. |]);
  Alcotest.check q "four" (1.25, 2.5, 3.75) (Stats.quartiles [| 1.; 2.; 3.; 4. |]);
  Alcotest.check q "five" (1.5, 5., 8.) (Stats.quartiles [| 5.; 1.; 9.; 2.; 7. |]);
  Alcotest.check q "seven" (2.5, 11., 13.)
    (Stats.quartiles [| 1.5; 2.5; 10.; 11.; 12.; 13.; 30. |])

let test_names () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Stats.valid_name s))
    [ "jobs_per_s"; "gen.busy_s"; "decision_p99_us"; "batch_m512"; "9lives"; "a-b.c_d" ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S" s) false (Stats.valid_name s))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "p99%"; String.make 65 'a' ];
  Alcotest.(check bool) "64 letters" true (Stats.valid_name (String.make 64 'a'));
  List.iter
    (fun s -> Alcotest.(check bool) s true (Stats.valid_unit s))
    [ "1/s"; "s"; "us"; "MB"; "fraction"; "%" ];
  Alcotest.(check bool) "unit too long" false (Stats.valid_unit (String.make 17 's'));
  Alcotest.(check bool) "unit space" false (Stats.valid_unit "per s")

let test_json () =
  let open Jsonw in
  Alcotest.(check string) "result line"
    {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"x.y": {"value": 0.10000000000000001, "unit": "s"}}}|}
    (to_string
       (Obj
          [
            ("correct", Bool true);
            ("attempted", Int 3);
            ("failed", Int 0);
            ("metrics", Obj [ ("x.y", Obj [ ("value", Float 0.1); ("unit", String "s") ]) ]);
          ]));
  Alcotest.(check string) "integral float" "[2.0, -0.5, null]" (to_string (List [ Float 2.; Float (-0.5); Null ]));
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd\u0001"|} (to_string (String "a\"b\\c\nd\001"));
  Alcotest.check_raises "nan" (Invalid_argument "Jsonw: non-finite float") (fun () ->
      ignore (to_string (Float Float.nan)));
  let x = 1. /. 3. in
  Alcotest.check feq "round trip" x (float_of_string (to_string (Float x)))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "median over passes" `Quick test_median;
          Alcotest.test_case "quartiles over passes" `Quick test_quartiles;
        ] );
      ( "names",
        [ Alcotest.test_case "metric-name validation" `Quick test_names ] );
      ("json", [ Alcotest.test_case "result writer" `Quick test_json ]);
    ]
