(* Sharded rendezvous forest (DESIGN.md §14).

   The pure mapper first: the Z-cell -> shard map must be total,
   monotone and balanced at every shard count, a filter's home shard
   is its center cell's owner and always a member of its own fan-out
   set, and the publish fan-out set must equal a brute-force scan over
   every grid cell — the mapper is the only routing authority in
   forest mode, so these properties carry the zero-false-negative
   argument. Then the overlay: shard assignment is deterministic
   across layouts, and a sharded build converges to a legal forest
   with exact delivery, and a one-shard forest is indistinguishable
   from [Single] down to the telemetry fingerprint (the mck forest
   axis, fixed traces in axis_traces.ml). *)

module R = Geometry.Rect
module P = Geometry.Point
module O = Drtree.Overlay
module Inv = Drtree.Invariant
module Cfg = Drtree.Config
module Rdv = Drtree.Rendezvous
module Rng = Sim.Rng
module Sg = Workload.Subscription_gen

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual
let check_int msg expected actual = Alcotest.(check int) msg expected actual
let space = R.make2 ~x0:0.0 ~y0:0.0 ~x1:100.0 ~y1:100.0
let mapper shards = Rdv.create ~forest:(Cfg.Sharded { shards }) ~space

(* Random sub-rectangles of [space] (small-extent filters, like the
   workload generators draw). *)
let rect_gen =
  QCheck2.Gen.map
    (fun ((x0, y0), (w, h)) ->
      R.make2 ~x0 ~y0
        ~x1:(Float.min 100.0 (x0 +. w))
        ~y1:(Float.min 100.0 (y0 +. h)))
    QCheck2.Gen.(
      pair
        (pair (float_bound_inclusive 95.0) (float_bound_inclusive 95.0))
        (pair (float_bound_inclusive 40.0) (float_bound_inclusive 40.0)))

(* --- The pure mapper ------------------------------------------------------ *)

(* Every cell maps, to a shard in range; contiguous ranges are
   monotone in the Z key; no shard is empty and the range sizes are
   balanced to within one cell. *)
let mapper_total =
  QCheck2.Test.make ~name:"cell->shard map total, monotone, balanced"
    ~count:100
    QCheck2.Gen.(int_range 1 64)
    (fun requested ->
      let rdv = mapper requested in
      let k = Rdv.shards rdv in
      if k < 1 || k > requested then
        QCheck2.Test.fail_reportf "shard count %d out of [1, %d]" k requested;
      let cells = Rdv.total_cells rdv in
      if cells < k then
        QCheck2.Test.fail_reportf "%d cells cannot cover %d shards" cells k;
      let counts = Array.make k 0 in
      let prev = ref 0 in
      for c = 0 to cells - 1 do
        let s = Rdv.shard_of_cell rdv c in
        if s < 0 || s >= k then
          QCheck2.Test.fail_reportf "cell %d maps to shard %d (of %d)" c s k;
        if s < !prev then
          QCheck2.Test.fail_reportf "map not monotone at cell %d (%d after %d)"
            c s !prev;
        prev := s;
        counts.(s) <- counts.(s) + 1
      done;
      let lo = Array.fold_left min max_int counts in
      let hi = Array.fold_left max 0 counts in
      if lo = 0 then QCheck2.Test.fail_reportf "a shard owns no cell";
      if hi - lo > 1 then
        QCheck2.Test.fail_reportf "unbalanced ranges: %d vs %d cells" lo hi;
      true)

(* The home shard is the center cell's owner, lies in range, belongs
   to the filter's own fan-out set, and is reproduced by an
   independently built mapper (pure function of the grid). *)
let mapper_home =
  QCheck2.Test.make ~name:"home shard = center cell owner, in own fan-out"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 32) rect_gen)
    (fun (requested, r) ->
      let rdv = mapper requested in
      let home = Rdv.home_shard rdv r in
      if home < 0 || home >= Rdv.shards rdv then
        QCheck2.Test.fail_reportf "home shard %d out of range" home;
      if home <> Rdv.point_shard rdv (R.center r) then
        QCheck2.Test.fail_reportf "home %d is not the center cell's owner"
          home;
      if not (List.mem home (Rdv.intersecting_shards rdv r)) then
        QCheck2.Test.fail_reportf "home %d missing from its own fan-out" home;
      if home <> Rdv.home_shard (mapper requested) r then
        QCheck2.Test.fail_reportf "home shard not deterministic";
      true)

(* The fan-out set equals the brute-force scan: every shard owning a
   grid cell the rectangle overlaps, and nothing else. *)
let mapper_fanout =
  QCheck2.Test.make ~name:"intersecting shards = brute-force cell scan"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 32) rect_gen)
    (fun (requested, r) ->
      let rdv = mapper requested in
      let brute = ref [] in
      for c = 0 to Rdv.total_cells rdv - 1 do
        match Rdv.cell_rect rdv c with
        | Some cell when R.intersects cell r ->
            brute := Rdv.shard_of_cell rdv c :: !brute
        | Some _ | None -> ()
      done;
      let brute = List.sort_uniq compare !brute in
      let got = Rdv.intersecting_shards rdv r in
      if got <> brute then
        QCheck2.Test.fail_reportf "fan-out [%s] but cell scan says [%s]"
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int brute));
      true)

(* Totality fallbacks: [Single] is the identity and a
   dimension-mismatched filter degrades safely (home 0, all-shard
   fan-out) instead of raising. *)
let test_mapper_edges () =
  let single = Rdv.create ~forest:Cfg.Single ~space in
  check_int "Single has one shard" 1 (Rdv.shards single);
  check_int "Single has one cell" 1 (Rdv.total_cells single);
  check_bool "Single cell has no rect" true (Rdv.cell_rect single 0 = None);
  check_bool "Single fan-out is [0]" true
    (Rdv.intersecting_shards single space = [ 0 ]);
  let rdv = mapper 5 in
  let r3 =
    R.make ~low:[| 1.0; 1.0; 1.0 |] ~high:[| 2.0; 2.0; 2.0 |]
  in
  check_int "3-D filter homes on shard 0" 0 (Rdv.home_shard rdv r3);
  check_bool "3-D filter fans out to every shard" true
    (Rdv.intersecting_shards rdv r3 = List.init (Rdv.shards rdv) Fun.id);
  (try
     ignore (Rdv.shard_of_cell rdv (Rdv.total_cells rdv));
     Alcotest.fail "out-of-range cell must be rejected"
   with Invalid_argument _ -> ());
  match Rdv.shard_region rdv 0 with
  | None -> Alcotest.fail "shard 0 must own a region"
  | Some _ -> check_bool "out-of-range region is None" true
                (Rdv.shard_region rdv (Rdv.shards rdv) = None)

(* --- The overlay ---------------------------------------------------------- *)

let build_sharded ?(shards = 4) ?(layout = Cfg.default.Cfg.layout) ~seed n =
  let cfg = Cfg.make ~forest:(Cfg.Sharded { shards }) ~layout () in
  let ov = O.create ~cfg ~seed () in
  let rng = Rng.make ((seed * 13) + 7) in
  let rects = Sg.clustered () Workload.Space.default rng n in
  List.iter (fun r -> ignore (O.join ov r)) rects;
  ignore (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov);
  ov

(* Shard assignment is a pure function of the filter: the hashed and
   flat layouts agree on every home and on every designated root. *)
let test_assignment_deterministic () =
  let snapshot ov =
    ( List.map (fun id -> (id, O.shard_of ov id)) (O.alive_ids ov),
      O.shard_roots ov )
  in
  let base = snapshot (build_sharded ~layout:Cfg.Hashed ~seed:41 80) in
  check_bool "flat layout agrees with hashed" true
    (snapshot (build_sharded ~layout:Cfg.Flat ~seed:41 80) = base)

(* A sharded build converges to a legal forest (per-shard root
   uniqueness and reachability included) and publishes exactly:
   matched = delivered, zero false negatives, on every event. *)
let test_sharded_build_exact () =
  let ov = build_sharded ~shards:4 ~seed:42 120 in
  check_int "four shards" 4 (O.shard_count ov);
  check_int "a root slot per shard" 4 (List.length (O.shard_roots ov));
  check_bool "legal forest" true (Inv.check ov = []);
  let ids = O.alive_ids ov in
  List.iter
    (fun id ->
      let s = O.shard_of ov id in
      if s < 0 || s >= 4 then Alcotest.failf "shard %d out of range" s)
    ids;
  let rng = Rng.make 4242 in
  for _ = 1 to 25 do
    let p = P.make2 (Rng.range rng 0.0 100.0) (Rng.range rng 0.0 100.0) in
    let report = O.publish ov ~from:(Rng.pick rng ids) p in
    check_int "zero false negatives" 0 report.O.false_negatives;
    check_bool "delivered = matched" true
      (Sim.Node_id.Set.equal report.O.delivered report.O.matched)
  done

(* --- Config ---------------------------------------------------------------- *)

let test_config_forest () =
  check_bool "default is the single tree" true
    (Cfg.default.Cfg.forest = Cfg.Single);
  (try
     ignore (Cfg.make ~forest:(Cfg.Sharded { shards = 0 }) ());
     Alcotest.fail "shards=0 must be rejected"
   with Invalid_argument _ -> ());
  try
    ignore (Cfg.make ~forest:(Cfg.Sharded { shards = Cfg.max_shards + 1 }) ());
    Alcotest.fail "shards>max must be rejected"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "forest"
    [
      ( "mapper",
        [
          QCheck_alcotest.to_alcotest mapper_total;
          QCheck_alcotest.to_alcotest mapper_home;
          QCheck_alcotest.to_alcotest mapper_fanout;
          Alcotest.test_case "identity and fallback edges" `Quick
            test_mapper_edges;
        ] );
      ( "overlay",
        [
          Alcotest.test_case "assignment deterministic across layouts"
            `Quick test_assignment_deterministic;
          Alcotest.test_case "sharded build legal, delivery exact" `Quick
            test_sharded_build_exact;
        ] );
      ( "differential",
        Axis_traces.test_cases "forest"
          [
            "random traces forest-identical";
            "hostile wire traces forest-identical";
          ] );
      ( "config",
        [ Alcotest.test_case "forest knob" `Quick test_config_forest ] );
    ]
