(* Unit and property tests for the geometry substrate. *)

module P = Geometry.Point
module R = Geometry.Rect

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Point -------------------------------------------------------------- *)

let test_point_basics () =
  let p = P.make2 1.0 2.0 in
  check_int "dims" 2 (P.dims p);
  check_float "x" 1.0 (P.coord p 0);
  check_float "y" 2.0 (P.coord p 1);
  check_bool "equal" true (P.equal p (P.of_list [ 1.0; 2.0 ]));
  check_bool "not equal" false (P.equal p (P.make2 1.0 2.5))

let test_point_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Point.make: empty coordinates")
    (fun () -> ignore (P.make [||]));
  Alcotest.check_raises "nan" (Invalid_argument "Point.make: NaN coordinate")
    (fun () -> ignore (P.make [| Float.nan |]));
  Alcotest.check_raises "oob" (Invalid_argument "Point.coord: out of bounds")
    (fun () -> ignore (P.coord (P.make2 0.0 0.0) 2))

let test_point_distance () =
  let a = P.make2 0.0 0.0 and b = P.make2 3.0 4.0 in
  check_float "euclidean" 5.0 (P.distance a b);
  check_float "squared" 25.0 (P.distance_sq a b);
  check_float "self" 0.0 (P.distance a a)

let test_point_immutable () =
  let arr = [| 1.0; 2.0 |] in
  let p = P.make arr in
  arr.(0) <- 99.0;
  check_float "copied on make" 1.0 (P.coord p 0);
  let out = P.coords p in
  out.(0) <- 42.0;
  check_float "copied on coords" 1.0 (P.coord p 0)

let test_point_compare () =
  check_bool "lt" true (P.compare (P.make2 1.0 0.0) (P.make2 2.0 0.0) < 0);
  check_bool "eq" true (P.compare (P.make2 1.0 0.0) (P.make2 1.0 0.0) = 0);
  check_bool "second coord" true
    (P.compare (P.make2 1.0 1.0) (P.make2 1.0 2.0) < 0)

(* --- Rect --------------------------------------------------------------- *)

let rect x0 y0 x1 y1 = R.make2 ~x0 ~y0 ~x1 ~y1

let test_rect_basics () =
  let r = rect 1.0 2.0 4.0 6.0 in
  check_int "dims" 2 (R.dims r);
  check_float "area" 12.0 (R.area r);
  check_float "margin" 7.0 (R.margin r);
  check_bool "center" true (P.equal (R.center r) (P.make2 2.5 4.0))

let test_rect_normalizes () =
  let r = R.make2 ~x0:4.0 ~y0:6.0 ~x1:1.0 ~y1:2.0 in
  check_float "low x" 1.0 (R.low r 0);
  check_float "high y" 6.0 (R.high r 1)

let test_rect_errors () =
  Alcotest.check_raises "low > high" (Invalid_argument "Rect.make: low > high")
    (fun () -> ignore (R.make ~low:[| 1.0 |] ~high:[| 0.0 |]));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Rect.make: bound lengths differ") (fun () ->
      ignore (R.make ~low:[| 0.0 |] ~high:[| 1.0; 2.0 |]));
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Rect.contains: dimension mismatch") (fun () ->
      ignore (R.contains (R.universe 2) (R.universe 3)))

let test_rect_contains () =
  let outer = rect 0.0 0.0 10.0 10.0 in
  let inner = rect 2.0 2.0 5.0 5.0 in
  check_bool "contains" true (R.contains outer inner);
  check_bool "not contained" false (R.contains inner outer);
  check_bool "self" true (R.contains outer outer);
  check_bool "boundary" true (R.contains outer (rect 0.0 0.0 10.0 5.0));
  check_bool "point inside" true (R.contains_point outer (P.make2 5.0 5.0));
  check_bool "point on edge" true (R.contains_point outer (P.make2 10.0 10.0));
  check_bool "point outside" false (R.contains_point outer (P.make2 10.1 5.0))

let test_rect_intersection () =
  let a = rect 0.0 0.0 4.0 4.0 and b = rect 2.0 2.0 6.0 6.0 in
  check_bool "intersects" true (R.intersects a b);
  (match R.intersection a b with
  | Some i ->
      check_float "ix area" 4.0 (R.area i);
      check_bool "ix rect" true (R.equal i (rect 2.0 2.0 4.0 4.0))
  | None -> Alcotest.fail "expected overlap");
  check_float "intersection_area" 4.0 (R.intersection_area a b);
  let c = rect 10.0 10.0 12.0 12.0 in
  check_bool "disjoint" false (R.intersects a c);
  check_bool "disjoint none" true (R.intersection a c = None);
  check_float "disjoint area" 0.0 (R.intersection_area a c);
  (* Touching rectangles share a boundary. *)
  let d = rect 4.0 0.0 8.0 4.0 in
  check_bool "touching" true (R.intersects a d);
  check_float "touching area" 0.0 (R.intersection_area a d)

let test_rect_union () =
  let a = rect 0.0 0.0 2.0 2.0 and b = rect 5.0 5.0 6.0 6.0 in
  let u = R.union a b in
  check_bool "covers a" true (R.contains u a);
  check_bool "covers b" true (R.contains u b);
  check_float "bounds" 6.0 (R.high u 0);
  check_bool "union_many" true
    (R.equal (R.union_many [ a; b ]) u);
  Alcotest.check_raises "union_many []"
    (Invalid_argument "Rect.union_many: empty list") (fun () ->
      ignore (R.union_many []))

let test_rect_enlargement () =
  let a = rect 0.0 0.0 2.0 2.0 in
  check_float "no growth" 0.0 (R.enlargement a (rect 1.0 1.0 2.0 2.0));
  check_float "growth" 12.0 (R.enlargement a (rect 0.0 0.0 4.0 4.0));
  (* waste = dead space of grouping: negative when the pair overlaps
     fully, positive for distant rectangles. *)
  check_float "waste of self" (-4.0) (R.waste a a);
  check_float "waste of distant pair" 98.0
    (R.waste (rect 0.0 0.0 1.0 1.0) (rect 9.0 9.0 10.0 10.0))

let test_rect_unbounded () =
  let u = R.universe 2 in
  check_bool "contains all" true (R.contains u (rect (-1e9) (-1e9) 1e9 1e9));
  check_bool "area inf" true (Float.is_integer (R.area u) = false || R.area u = infinity);
  check_float "area" infinity (R.area u);
  (* A degenerate slab in an unbounded space has zero area. *)
  let slab = R.make ~low:[| 0.0; neg_infinity |] ~high:[| 0.0; infinity |] in
  check_float "degenerate slab" 0.0 (R.area slab);
  check_bool "point in universe" true (R.contains_point u (P.make2 1e18 ~-.1e18))

let test_rect_of_points () =
  let r = R.of_points [ P.make2 1.0 5.0; P.make2 3.0 2.0; P.make2 2.0 9.0 ] in
  check_bool "mbr of points" true (R.equal r (rect 1.0 2.0 3.0 9.0));
  let d = R.of_point (P.make2 4.0 4.0) in
  check_float "degenerate area" 0.0 (R.area d);
  check_bool "contains its point" true (R.contains_point d (P.make2 4.0 4.0))

let test_rect_distance_to_point () =
  let r = rect 0.0 0.0 10.0 10.0 in
  check_float "inside" 0.0 (R.distance_sq_to_point r (P.make2 5.0 5.0));
  check_float "on edge" 0.0 (R.distance_sq_to_point r (P.make2 10.0 3.0));
  check_float "right of" 25.0 (R.distance_sq_to_point r (P.make2 15.0 5.0));
  check_float "corner" 8.0 (R.distance_sq_to_point r (P.make2 12.0 12.0));
  Alcotest.check_raises "dims"
    (Invalid_argument "Rect.distance_sq_to_point: dimension mismatch")
    (fun () -> ignore (R.distance_sq_to_point r (P.make [| 1.0 |])))

(* --- Properties ---------------------------------------------------------- *)

let rect_gen =
  let open QCheck2.Gen in
  let coord = float_range (-100.0) 100.0 in
  map4
    (fun x0 y0 dx dy -> R.make2 ~x0 ~y0 ~x1:(x0 +. abs_float dx) ~y1:(y0 +. abs_float dy))
    coord coord (float_range 0.0 50.0) (float_range 0.0 50.0)

let point_gen =
  let open QCheck2.Gen in
  map2 (fun x y -> P.make2 x y) (float_range (-150.0) 150.0)
    (float_range (-150.0) 150.0)

let prop_union_commutative =
  QCheck2.Test.make ~name:"union commutative" ~count:300
    QCheck2.Gen.(pair rect_gen rect_gen)
    (fun (a, b) -> R.equal (R.union a b) (R.union b a))

let prop_union_covers =
  QCheck2.Test.make ~name:"union covers both operands" ~count:300
    QCheck2.Gen.(pair rect_gen rect_gen)
    (fun (a, b) ->
      let u = R.union a b in
      R.contains u a && R.contains u b)

let prop_union_idempotent =
  QCheck2.Test.make ~name:"union idempotent" ~count:300 rect_gen (fun r ->
      R.equal (R.union r r) r)

let prop_area_monotone =
  QCheck2.Test.make ~name:"area monotone under union" ~count:300
    QCheck2.Gen.(pair rect_gen rect_gen)
    (fun (a, b) -> R.area (R.union a b) >= Float.max (R.area a) (R.area b) -. 1e-9)

let prop_containment_transitive =
  QCheck2.Test.make ~name:"containment transitive" ~count:300
    QCheck2.Gen.(triple rect_gen rect_gen rect_gen)
    (fun (a, b, c) ->
      (* Build a nested chain to make the premise non-vacuous. *)
      let b' = R.union a b and c' = R.union (R.union a b) c in
      R.contains c' b' && R.contains b' a && R.contains c' a)

let prop_intersection_inside =
  QCheck2.Test.make ~name:"intersection inside both" ~count:300
    QCheck2.Gen.(pair rect_gen rect_gen)
    (fun (a, b) ->
      match R.intersection a b with
      | None -> not (R.intersects a b)
      | Some i -> R.contains a i && R.contains b i)

let prop_point_in_union =
  QCheck2.Test.make ~name:"point in operand => in union" ~count:300
    QCheck2.Gen.(triple rect_gen rect_gen point_gen)
    (fun (a, b, p) ->
      let u = R.union a b in
      (not (R.contains_point a p)) || R.contains_point u p)

let prop_enlargement_nonneg =
  QCheck2.Test.make ~name:"enlargement non-negative" ~count:300
    QCheck2.Gen.(pair rect_gen rect_gen)
    (fun (a, b) -> R.enlargement a b >= -1e-9)

let prop_distance_zero_iff_inside =
  QCheck2.Test.make ~name:"distance 0 iff point inside" ~count:300
    QCheck2.Gen.(pair rect_gen point_gen)
    (fun (r, p) ->
      Bool.equal
        (R.distance_sq_to_point r p = 0.0)
        (R.contains_point r p))

let prop_distance_bounded_by_center =
  QCheck2.Test.make ~name:"rect distance <= distance to center" ~count:300
    QCheck2.Gen.(pair rect_gen point_gen)
    (fun (r, p) ->
      (not (Float.is_finite (Geometry.Point.distance (R.center r) p)))
      || R.distance_sq_to_point r p
         <= Geometry.Point.distance_sq (R.center r) p +. 1e-9)

(* Rectangles of 1..3 dimensions whose bounds come from a few values,
   so comparisons hit ties in every position. *)
let small_rect_gen =
  let open QCheck2.Gen in
  let bound = oneofl [ neg_infinity; -1.0; 0.0; 0.5; 2.0; infinity ] in
  int_range 1 3 >>= fun n ->
  map2
    (fun a b ->
      let lo = Array.map2 Float.min a b and hi = Array.map2 Float.max a b in
      (lo, hi))
    (array_size (pure n) bound) (array_size (pure n) bound)

(* [compare] and [equal] are the lexicographic order on (dims, lows,
   highs), whatever the storage layout; [make], [of_point], [lows] and
   [highs] never share an array with their caller. *)
let prop_rect_order_and_copies =
  QCheck2.Test.make ~name:"rect order lexicographic, no aliasing" ~count:500
    QCheck2.Gen.(pair small_rect_gen small_rect_gen)
    (fun ((lo_a, hi_a), (lo_b, hi_b)) ->
      let a = R.make ~low:lo_a ~high:hi_a and b = R.make ~low:lo_b ~high:hi_b in
      let key lo hi = (Array.length lo, Array.to_list lo, Array.to_list hi) in
      let reference (n1, l1, h1) (n2, l2, h2) =
        match Int.compare n1 n2 with
        | 0 -> (
            match List.compare Float.compare l1 l2 with
            | 0 -> List.compare Float.compare h1 h2
            | c -> c)
        | c -> c
      in
      let sign x = Int.compare x 0 in
      let expected = reference (key lo_a hi_a) (key lo_b hi_b) in
      let order_ok =
        sign (R.compare a b) = sign expected
        && sign (R.compare b a) = - (sign expected)
        && Bool.equal (R.equal a b) (expected = 0)
        && R.compare a a = 0 && R.equal a a
      in
      (* Scribble over every array that crossed the interface. *)
      let saved_lo = Array.copy lo_a and saved_hi = Array.copy hi_a in
      Array.fill lo_a 0 (Array.length lo_a) 42.0;
      Array.fill hi_a 0 (Array.length hi_a) 43.0;
      let out_lo = R.lows a and out_hi = R.highs a in
      Array.fill out_lo 0 (Array.length out_lo) 44.0;
      Array.fill out_hi 0 (Array.length out_hi) 45.0;
      let make_ok = R.lows a = saved_lo && R.highs a = saved_hi in
      let finite x = if Float.is_finite x then x else 1.0 in
      let pt = P.make (Array.map finite saved_lo) in
      let r = R.of_point pt in
      let r_lo = R.lows r in
      Array.fill r_lo 0 (Array.length r_lo) 46.0;
      let of_point_ok =
        R.lows r = P.coords pt && R.highs r = P.coords pt
        && R.dims r = P.dims pt && R.area r = 0.0
      in
      order_ok && make_ok && of_point_ok)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_union_commutative;
        prop_union_covers;
        prop_union_idempotent;
        prop_area_monotone;
        prop_containment_transitive;
        prop_intersection_inside;
        prop_point_in_union;
        prop_enlargement_nonneg;
        prop_distance_zero_iff_inside;
        prop_distance_bounded_by_center;
        prop_rect_order_and_copies;
      ]
  in
  Alcotest.run "geometry"
    [
      ( "point",
        [
          Alcotest.test_case "basics" `Quick test_point_basics;
          Alcotest.test_case "errors" `Quick test_point_errors;
          Alcotest.test_case "distance" `Quick test_point_distance;
          Alcotest.test_case "immutability" `Quick test_point_immutable;
          Alcotest.test_case "compare" `Quick test_point_compare;
        ] );
      ( "rect",
        [
          Alcotest.test_case "basics" `Quick test_rect_basics;
          Alcotest.test_case "normalization" `Quick test_rect_normalizes;
          Alcotest.test_case "errors" `Quick test_rect_errors;
          Alcotest.test_case "containment" `Quick test_rect_contains;
          Alcotest.test_case "intersection" `Quick test_rect_intersection;
          Alcotest.test_case "union" `Quick test_rect_union;
          Alcotest.test_case "enlargement" `Quick test_rect_enlargement;
          Alcotest.test_case "unbounded" `Quick test_rect_unbounded;
          Alcotest.test_case "of_points" `Quick test_rect_of_points;
          Alcotest.test_case "distance to point" `Quick
            test_rect_distance_to_point;
        ] );
      ("properties", qsuite);
    ]
