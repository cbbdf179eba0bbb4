(* Tests for the statistics helpers. *)

module Su = Stats.Summary
module Rg = Stats.Regression
module T = Stats.Table

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_summary_basics () =
  let s = Su.of_list [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_int "count" 5 s.Su.count;
  check_float "mean" 3.0 s.Su.mean;
  check_float "min" 1.0 s.Su.min;
  check_float "max" 5.0 s.Su.max;
  check_float "p50" 3.0 s.Su.p50;
  check_float "stddev" (sqrt 2.5) s.Su.stddev

let test_summary_single () =
  let s = Su.of_list [ 7.0 ] in
  check_float "mean" 7.0 s.Su.mean;
  check_float "stddev" 0.0 s.Su.stddev;
  check_float "p99" 7.0 s.Su.p99

let test_summary_of_ints () =
  let s = Su.of_ints [ 1; 2; 3 ] in
  check_float "mean" 2.0 s.Su.mean

let test_summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_list: empty sample")
    (fun () -> ignore (Su.of_list []))

let test_percentile () =
  let sorted = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Su.percentile sorted 0.0);
  check_float "p100" 40.0 (Su.percentile sorted 1.0);
  check_float "p50 interpolated" 25.0 (Su.percentile sorted 0.5);
  Alcotest.check_raises "q range"
    (Invalid_argument "Summary.percentile: q outside [0,1]") (fun () ->
      ignore (Su.percentile sorted 1.5))

let test_regression_exact () =
  let points = List.init 10 (fun i ->
      let x = float_of_int i in
      (x, (2.0 *. x) +. 1.0)) in
  let fit = Rg.linear points in
  check_float "slope" 2.0 fit.Rg.slope;
  check_float "intercept" 1.0 fit.Rg.intercept;
  check_float "r2" 1.0 fit.Rg.r2

let test_regression_noisy () =
  let points =
    [ (0.0, 0.1); (1.0, 0.9); (2.0, 2.2); (3.0, 2.8); (4.0, 4.1) ]
  in
  let fit = Rg.linear points in
  check_bool "slope near 1" true (Float.abs (fit.Rg.slope -. 1.0) < 0.1);
  check_bool "good fit" true (fit.Rg.r2 > 0.98)

let test_regression_errors () =
  Alcotest.check_raises "too few"
    (Invalid_argument "Regression.linear: need at least 2 points") (fun () ->
      ignore (Rg.linear [ (1.0, 1.0) ]));
  Alcotest.check_raises "constant x"
    (Invalid_argument "Regression.linear: constant x values") (fun () ->
      ignore (Rg.linear [ (1.0, 1.0); (1.0, 2.0) ]))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_plain () =
  let t = T.create ~title:"demo" ~columns:[ "a"; "b" ] in
  T.add_row t [ "1"; "2" ];
  T.add_rowf t "%d|%.1f" 3 4.5;
  let rendered = Format.asprintf "%a" T.pp t in
  check_bool "title" true (contains_sub rendered "demo");
  check_bool "header" true (contains_sub rendered "| a |" || contains_sub rendered "a |");
  check_bool "cell" true (contains_sub rendered "4.5");
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> T.add_row t [ "only-one" ])

let test_table_csv () =
  let t = T.create ~title:"csv" ~columns:[ "name"; "value" ] in
  T.add_row t [ "plain"; "1" ];
  T.add_row t [ "with,comma"; "2" ];
  T.add_row t [ "with\"quote"; "3" ];
  let csv = T.to_csv t in
  check_bool "header first" true (contains_sub csv "name,value\n");
  check_bool "plain row" true (contains_sub csv "plain,1\n");
  check_bool "comma quoted" true (contains_sub csv "\"with,comma\",2");
  check_bool "quote escaped" true (contains_sub csv "\"with\"\"quote\",3")

let e24_title =
  "E24  aggregation traffic vs flooding baseline, tct sweep (N=256, 50 \
   epochs, 4 queries; TiNA: ~50% reduction at modest tolerance)"

let e25_title =
  "E25  aggregate error under churn + 10% loss (N=200, 30 epochs, tct=0), \
   then exact recovery after stabilization"

let test_table_csv_env_mirror () =
  (* DRTREE_CSV_DIR mirrors every printed table as a slugged .csv —
     bench/Harness funnels through this same Table.print path, so this
     pins the mechanism for the E24/E25 aggregation tables. *)
  let dir = Filename.temp_file "drtree-csv" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Unix.putenv "DRTREE_CSV_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DRTREE_CSV_DIR" "";
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let print title columns row =
        let t = T.create ~title ~columns in
        T.add_row t row;
        T.print t
      in
      print e24_title [ "tct"; "tree msgs/ep" ] [ "0"; "278.1" ];
      print e25_title [ "query"; "mean |err|" ] [ "sum"; "0.000" ];
      let files = Array.to_list (Sys.readdir dir) in
      let mirrored prefix =
        List.exists
          (fun f ->
            String.length f >= String.length prefix
            && String.sub f 0 (String.length prefix) = prefix
            && Filename.check_suffix f ".csv"
            &&
            let ic = open_in (Filename.concat dir f) in
            let header = input_line ic in
            close_in ic;
            contains_sub header ",")
          files
      in
      check_int "one file per printed table" 2 (List.length files);
      check_bool "E24 table mirrored with its header" true (mirrored "e24_");
      check_bool "E25 table mirrored with its header" true (mirrored "e25_"))

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "basics" `Quick test_summary_basics;
          Alcotest.test_case "single" `Quick test_summary_single;
          Alcotest.test_case "ints" `Quick test_summary_of_ints;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "regression",
        [
          Alcotest.test_case "exact line" `Quick test_regression_exact;
          Alcotest.test_case "noisy line" `Quick test_regression_noisy;
          Alcotest.test_case "errors" `Quick test_regression_errors;
        ] );
      ( "table",
        [
          Alcotest.test_case "rendering" `Quick test_table_plain;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "env-var CSV mirror (E24/E25)" `Quick
            test_table_csv_env_mirror;
        ] );
    ]
