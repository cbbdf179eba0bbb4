(* Tests for the DR-tree overlay: state, configuration, joins,
   structural invariants and shape bounds (Lemmas 3.1, 3.2). *)

module R = Geometry.Rect
module O = Drtree.Overlay
module St = Drtree.State
module Inv = Drtree.Invariant
module Cfg = Drtree.Config

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rect x0 y0 x1 y1 = R.make2 ~x0 ~y0 ~x1 ~y1

let legal ov =
  match Inv.check ov with
  | [] -> true
  | vs ->
      List.iter
        (fun v -> Format.eprintf "violation: %a@." Inv.pp_violation v)
        vs;
      false

let random_rect rng =
  let x0 = Sim.Rng.range rng 0.0 90.0 and y0 = Sim.Rng.range rng 0.0 90.0 in
  let w = Sim.Rng.range rng 1.0 10.0 and h = Sim.Rng.range rng 1.0 10.0 in
  rect x0 y0 (x0 +. w) (y0 +. h)

let build ?(cfg = Cfg.default) ~seed n =
  let rng = Sim.Rng.make (seed * 31) in
  let ov = O.create ~cfg ~seed () in
  for _ = 1 to n do
    ignore (O.join ov (random_rect rng))
  done;
  ov

let stabilized ov = O.stabilize ~legal:Inv.is_legal ov <> None

(* --- State ---------------------------------------------------------------- *)

let test_state_create () =
  let s = St.create ~id:7 ~filter:(rect 0.0 0.0 1.0 1.0) () in
  check_int "top" 0 (St.top s);
  check_bool "active at 0" true (St.is_active s 0);
  check_bool "inactive at 1" false (St.is_active s 1);
  check_bool "root of itself" true (St.is_root s 0);
  check_bool "leaf mbr = filter" true
    (St.mbr_at s 0 = Some (rect 0.0 0.0 1.0 1.0));
  check_bool "memory positive" true (St.memory_words s > 0)

let test_state_activate_deactivate () =
  let s = St.create ~id:1 ~filter:(rect 0.0 0.0 1.0 1.0) () in
  let _l3 = St.activate s 3 in
  check_int "top raised" 3 (St.top s);
  check_bool "intermediate filled" true (St.is_active s 2);
  St.deactivate_above s 1;
  check_int "top lowered" 1 (St.top s);
  check_bool "gone" false (St.is_active s 2);
  St.deactivate_above s 5 (* no-op above top *);
  check_int "unchanged" 1 (St.top s)

let test_state_seen () =
  let s = St.create ~id:1 ~filter:(rect 0.0 0.0 1.0 1.0) () in
  check_bool "first" true (St.mark_seen s 42);
  check_bool "duplicate" false (St.mark_seen s 42);
  check_bool "other id" true (St.mark_seen s 43);
  St.clear_seen s;
  check_bool "after clear" true (St.mark_seen s 42)

(* --- Config ---------------------------------------------------------------- *)

let test_config () =
  let c = Cfg.make ~min_fill:3 ~max_fill:6 () in
  check_int "m" 3 c.Cfg.min_fill;
  check_bool "m too small" true
    (try ignore (Cfg.make ~min_fill:1 ()); false
     with Invalid_argument _ -> true);
  check_bool "M < 2m" true
    (try ignore (Cfg.make ~min_fill:3 ~max_fill:5 ()); false
     with Invalid_argument _ -> true)

(* Valid configurations over all 10 fields. The heartbeat period is a
   uniform draw, so it carries more than 6 significant digits. *)
let gen_config =
  let open QCheck2.Gen in
  let* min_fill = int_range 2 6 in
  let+ max_fill = int_range (2 * min_fill) ((2 * min_fill) + 6)
  and+ split = oneofl Rtree.Split.[ Linear; Quadratic; Rstar ]
  and+ oracle = oneofl Cfg.[ Root_oracle; Random_oracle ]
  and+ cover_sweep = bool
  and+ publish_ttl = int_range 1 1000
  and+ seen_capacity = int_range 1 100_000
  and+ layout = oneofl Cfg.[ Hashed; Flat ]
  and+ detector =
    oneof
      [
        pure Cfg.Oracle;
        map3
          (fun period timeout_factor fallbacks ->
            Cfg.Heartbeat { period; timeout_factor; fallbacks })
          (float_range 1e-3 100.0) (int_range 1 64) (int_range 0 8);
      ]
  and+ forest =
    oneof
      [
        pure Cfg.Single;
        map (fun shards -> Cfg.Sharded { shards }) (int_range 1 Cfg.max_shards);
      ]
  in
  { Cfg.min_fill; max_fill; split; oracle; cover_sweep; publish_ttl;
    seen_capacity; layout; detector; forest }

(* Text round-trips exactly, both as a config string and as a trace's
   config line. *)
let knob_table_round_trip =
  QCheck2.Test.make ~name:"knob table round-trip" ~count:500
    ~print:Cfg.to_string gen_config (fun c ->
      let tr = { Mck.Trace.default with Mck.Trace.config = c } in
      Cfg.validate c = Ok c
      && Cfg.of_string (Cfg.to_string c) = Ok c
      && Mck.Trace.of_string (Mck.Trace.to_string tr) = Ok tr)

let test_knob_table_cases () =
  let d = Cfg.default in
  let reads s want =
    (match Cfg.of_string s with
    | Ok c -> check_bool (Printf.sprintf "%S is read" s) true (c = want)
    | Error e -> Alcotest.failf "%S rejected: %s" s e);
    check_bool
      (Printf.sprintf "%S round-trips" (Cfg.to_string want))
      true
      (Cfg.of_string (Cfg.to_string want) = Ok want)
  in
  reads "" d;
  reads "layout=hashed" { d with Cfg.layout = Cfg.Hashed };
  reads "detector=heartbeat" { d with Cfg.detector = Cfg.default_heartbeat };
  reads "detector=heartbeat:2.5:5:0"
    { d with
      Cfg.detector =
        Cfg.Heartbeat { period = 2.5; timeout_factor = 5; fallbacks = 0 } };
  reads "forest=4" { d with Cfg.forest = Cfg.Sharded { shards = 4 } };
  reads "forest=sharded:1" { d with Cfg.forest = Cfg.Sharded { shards = 1 } };
  reads "forest=sharded:4096"
    { d with Cfg.forest = Cfg.Sharded { shards = Cfg.max_shards } };
  reads "forest=2 forest=single" d;
  check_bool "pp prints to_string" true
    (Format.asprintf "%a" Cfg.pp d = Cfg.to_string d);
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S rejected" s) true
        (Result.is_error (Cfg.of_string s)))
    [
      "layout=bogus"; "scheduler=bogus"; "detector=telepathy";
      "forest=sharded:zero"; "forest=0"; "forest=4097";
      "min-fill=3 max-fill=4"; "zeal=1"; "layout";
    ]

(* --- Joins ------------------------------------------------------------------ *)

let test_single_node () =
  let ov = O.create ~seed:1 () in
  let id = O.join ov (rect 0.0 0.0 1.0 1.0) in
  check_int "size" 1 (O.size ov);
  check_int "height" 0 (O.height ov);
  check_bool "is root" true (O.designated_root ov = Some id);
  check_bool "legal" true (legal ov)

let test_two_nodes_root_election () =
  (* The larger filter must be promoted as the interior node
     (Fig. 6 / Property 3.1). *)
  let ov = O.create ~seed:1 () in
  let small = O.join ov (rect 4.0 4.0 5.0 5.0) in
  let big = O.join ov (rect 0.0 0.0 10.0 10.0) in
  check_int "height" 1 (O.height ov);
  check_bool "big is root" true (O.designated_root ov = Some big);
  check_bool "small not root" true (O.designated_root ov <> Some small);
  check_bool "legal" true (legal ov)

let test_joins_preserve_legality () =
  (* Lemma 3.2: starting from a legitimate configuration, a join
     reaches a legitimate configuration — with no stabilization rounds
     in between. The cover sweep after ADD_CHILD is what restores the
     cover-optimality clause along the descent path. *)
  List.iter
    (fun seed ->
      let rng = Sim.Rng.make (seed * 97) in
      let ov = O.create ~seed () in
      for i = 1 to 150 do
        ignore (O.join ov (random_rect rng));
        if not (Inv.is_legal ov) then begin
          List.iter
            (fun v -> Format.eprintf "join %d: %a@." i Inv.pp_violation v)
            (Inv.check ov);
          Alcotest.failf "illegal after join %d (seed %d)" i seed
        end
      done)
    [ 1; 2; 3 ]

let test_join_sequence_legal_after_stabilize () =
  List.iter
    (fun n ->
      let ov = build ~seed:n n in
      check_int "all joined" n (O.size ov);
      check_bool
        (Printf.sprintf "stabilizes at n=%d" n)
        true (stabilized ov);
      check_bool (Printf.sprintf "legal at n=%d" n) true (legal ov))
    [ 2; 3; 5; 8; 16; 33; 64 ]

let test_join_all_configs () =
  List.iter
    (fun (m, mm) ->
      List.iter
        (fun split ->
          let cfg = Cfg.make ~min_fill:m ~max_fill:mm ~split () in
          let ov = build ~cfg ~seed:(m + mm) 60 in
          check_bool
            (Printf.sprintf "m=%d M=%d %s stabilizes" m mm
               (Rtree.Split.kind_to_string split))
            true (stabilized ov);
          check_bool "legal" true (legal ov))
        [ Rtree.Split.Linear; Rtree.Split.Quadratic; Rtree.Split.Rstar ])
    [ (2, 4); (2, 5); (3, 6) ]

let test_random_oracle_join () =
  let cfg = Cfg.make ~oracle:Cfg.Random_oracle () in
  let ov = build ~cfg ~seed:5 50 in
  check_int "size" 50 (O.size ov);
  check_bool "stabilizes" true (stabilized ov)

let test_identical_filters () =
  (* Many subscribers with the same rectangle must still form a legal
     balanced tree. *)
  let ov = O.create ~seed:3 () in
  for _ = 1 to 20 do
    ignore (O.join ov (rect 10.0 10.0 20.0 20.0))
  done;
  check_int "size" 20 (O.size ov);
  check_bool "stabilizes" true (stabilized ov);
  check_bool "legal" true (legal ov)

let test_containment_chain_join () =
  (* Nested filters: the outermost should end up as the root
     (weak containment awareness). *)
  let ov = O.create ~seed:4 () in
  let rects =
    List.init 10 (fun i ->
        let o = float_of_int i in
        rect o o (100.0 -. o) (100.0 -. o))
  in
  List.iter (fun r -> ignore (O.join ov r)) rects;
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  check_bool "legal" true (legal ov);
  check_int "no weak violations" 0 (Inv.weak_containment_violations ov)

(* --- Shape bounds (Lemma 3.1) -------------------------------------------------- *)

let test_height_logarithmic () =
  List.iter
    (fun n ->
      let ov = build ~seed:n n in
      ignore (O.stabilize ~legal:Inv.is_legal ov);
      let h = O.height ov in
      let bound =
        (* height <= c * log_m N with slack for imperfect packing *)
        int_of_float (3.0 *. Drtree.Analysis.height_bound ~m:2 ~n) + 2
      in
      check_bool
        (Printf.sprintf "height %d within bound %d at n=%d" h bound n)
        true (h <= bound))
    [ 16; 64; 128; 256 ]

let test_degree_bounded () =
  let ov = build ~seed:9 200 in
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  check_bool "max degree <= M" true
    (Inv.max_degree ov <= (O.cfg ov).Cfg.max_fill)

let test_memory_polylog () =
  let ov = build ~seed:10 256 in
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  let words = Inv.max_memory_words ov in
  let bound = Drtree.Analysis.memory_bound ~m:2 ~max_fill:4 ~n:256 in
  (* Constants: each level stores <= M ids + 6 words; allow 4x. *)
  check_bool
    (Printf.sprintf "memory %d within 4x bound %.0f" words (4.0 *. bound))
    true
    (float_of_int words <= 4.0 *. bound)

let test_join_hops_logarithmic () =
  let ov = build ~seed:11 200 in
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  let rng = Sim.Rng.make 99 in
  let hops = ref [] in
  for _ = 1 to 20 do
    ignore (O.join ov (random_rect rng));
    hops := O.last_join_hops ov :: !hops
  done;
  let maxh = List.fold_left max 0 !hops in
  check_bool
    (Printf.sprintf "join hops %d logarithmic" maxh)
    true
    (maxh <= 4 * (O.height ov + 2))

(* --- Analysis formulas ----------------------------------------------------------- *)

let test_analysis_bounds () =
  check_bool "height grows" true
    (Drtree.Analysis.height_bound ~m:2 ~n:1024
     > Drtree.Analysis.height_bound ~m:2 ~n:32);
  check_bool "bigger m smaller height" true
    (Drtree.Analysis.height_bound ~m:8 ~n:1024
     < Drtree.Analysis.height_bound ~m:2 ~n:1024);
  check_bool "n=1 zero" true (Drtree.Analysis.height_bound ~m:2 ~n:1 = 0.0);
  check_bool "repair superlinear" true
    (Drtree.Analysis.repair_steps_bound ~m:2 ~n:100
     > Drtree.Analysis.height_bound ~m:2 ~n:100)

let test_churn_formula () =
  let t1 = Drtree.Analysis.churn_disconnect_time ~n:100 ~delta:1.0 ~lambda:1.0 in
  let t2 = Drtree.Analysis.churn_disconnect_time ~n:100 ~delta:1.0 ~lambda:50.0 in
  (* More departures per window => earlier disconnect (the shape claim). *)
  check_bool "heavier churn, earlier disconnect" true (t2 < t1);
  check_bool "degenerate" true
    (Drtree.Analysis.churn_disconnect_time ~n:10 ~delta:0.0 ~lambda:1.0
     = infinity)

(* --- Containment awareness (Properties 3.1/3.2, experiment E11) ----------------- *)

let test_weak_containment_random () =
  List.iter
    (fun seed ->
      let rng = Sim.Rng.make seed in
      let ov = O.create ~seed () in
      let space = Workload.Space.default in
      let rects = Workload.Subscription_gen.containment () space rng 40 in
      List.iter (fun r -> ignore (O.join ov r)) rects;
      ignore (O.stabilize ~legal:Inv.is_legal ov);
      check_int
        (Printf.sprintf "weak violations (seed %d)" seed)
        0
        (Inv.weak_containment_violations ov))
    [ 1; 2; 3 ]

(* --- The checker detects each violation class (Def. 3.1) ------------------------- *)

let has_violation ov substring =
  List.exists
    (fun v ->
      let s = Format.asprintf "%a" Inv.pp_violation v in
      let n = String.length s and m = String.length substring in
      let rec go i = i + m <= n && (String.sub s i m = substring || go (i + 1)) in
      m = 0 || go 0)
    (Inv.check ov)

let interior_of ov =
  List.find
    (fun id ->
      match O.state ov id with
      | Some s -> St.top s >= 1 && O.designated_root ov <> Some id
      | None -> false)
    (O.alive_ids ov)

let detector_case name breakage expected =
  Alcotest.test_case name `Quick (fun () ->
      let ov = build ~seed:77 40 in
      ignore (O.stabilize ~legal:Inv.is_legal ov);
      check_bool "starts legal" true (Inv.is_legal ov);
      breakage ov;
      check_bool
        (Printf.sprintf "detects %S" expected)
        true (has_violation ov expected))

let detectors =
  [
    detector_case "underfull"
      (fun ov ->
        let id = interior_of ov in
        let s = Option.get (O.state ov id) in
        let l = St.level_exn s 1 in
        (* keep only the self-member *)
        l.St.children <- Sim.Node_id.Set.singleton id)
      "underfull";
    detector_case "stale flag"
      (fun ov ->
        let id = interior_of ov in
        let s = Option.get (O.state ov id) in
        let l = St.level_exn s 1 in
        l.St.underloaded <- not l.St.underloaded)
      "stale underloaded flag";
    detector_case "wrong MBR"
      (fun ov ->
        let id = interior_of ov in
        let s = Option.get (O.state ov id) in
        (St.level_exn s 1).St.mbr <- rect 0.0 0.0 0.1 0.1)
      "MBR is not the union";
    detector_case "leaf MBR"
      (fun ov ->
        let id = List.hd (O.alive_ids ov) in
        let s = Option.get (O.state ov id) in
        (St.level_exn s 0).St.mbr <- rect 0.0 0.0 0.1 0.1)
      "leaf MBR differs";
    detector_case "dangling parent"
      (fun ov ->
        let id =
          List.find (fun id -> O.designated_root ov <> Some id) (O.alive_ids ov)
        in
        let s = Option.get (O.state ov id) in
        (St.level_exn s (St.top s)).St.parent <- 999_999)
      "parent is dead or unknown";
    detector_case "foreign child"
      (fun ov ->
        let id = interior_of ov in
        let s = Option.get (O.state ov id) in
        let l = St.level_exn s 1 in
        (* adopt some leaf that belongs to another parent *)
        let stranger =
          List.find
            (fun o ->
              o <> id
              && (not (Sim.Node_id.Set.mem o l.St.children))
              &&
              match O.state ov o with
              | Some so -> St.top so = 0
              | None -> false)
            (O.alive_ids ov)
        in
        l.St.children <- Sim.Node_id.Set.add stranger l.St.children)
      "has another parent";
    detector_case "self-member missing"
      (fun ov ->
        let id = interior_of ov in
        let s = Option.get (O.state ov id) in
        let l = St.level_exn s 1 in
        l.St.children <- Sim.Node_id.Set.remove id l.St.children)
      "missing from its own children set";
    detector_case "multiple roots"
      (fun ov ->
        let id = interior_of ov in
        let s = Option.get (O.state ov id) in
        (St.level_exn s (St.top s)).St.parent <- id)
      "multiple root claimants";
    detector_case "better cover"
      (fun ov ->
        (* inflate a member's MBR beyond its holder's own member *)
        let id = interior_of ov in
        let s = Option.get (O.state ov id) in
        let l = St.level_exn s 1 in
        let member =
          Sim.Node_id.Set.min_elt
            (Sim.Node_id.Set.remove id l.St.children)
        in
        (match O.state ov member with
        | Some sm ->
            (St.level_exn sm 0).St.mbr <- rect (-500.0) (-500.0) 500.0 500.0
        | None -> ()))
      "offers a better cover";
  ]

let () =
  Alcotest.run "drtree"
    [
      ( "state",
        [
          Alcotest.test_case "create" `Quick test_state_create;
          Alcotest.test_case "activate/deactivate" `Quick
            test_state_activate_deactivate;
          Alcotest.test_case "seen marks" `Quick test_state_seen;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config;
          QCheck_alcotest.to_alcotest knob_table_round_trip;
          Alcotest.test_case "knob table cases" `Quick test_knob_table_cases;
        ] );
      ( "join",
        [
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "root election of two" `Quick
            test_two_nodes_root_election;
          Alcotest.test_case "every join preserves legality (Lemma 3.2)" `Slow
            test_joins_preserve_legality;
          Alcotest.test_case "sequences stay legal" `Slow
            test_join_sequence_legal_after_stabilize;
          Alcotest.test_case "all configs" `Slow test_join_all_configs;
          Alcotest.test_case "random oracle" `Quick test_random_oracle_join;
          Alcotest.test_case "identical filters" `Quick test_identical_filters;
          Alcotest.test_case "containment chain" `Quick
            test_containment_chain_join;
        ] );
      ( "shape",
        [
          Alcotest.test_case "height logarithmic" `Slow test_height_logarithmic;
          Alcotest.test_case "degree bounded" `Quick test_degree_bounded;
          Alcotest.test_case "memory polylog" `Quick test_memory_polylog;
          Alcotest.test_case "join hops" `Quick test_join_hops_logarithmic;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "bounds" `Quick test_analysis_bounds;
          Alcotest.test_case "churn formula" `Quick test_churn_formula;
        ] );
      ( "containment",
        [ Alcotest.test_case "weak property holds" `Slow
            test_weak_containment_random ] );
      ("violation-detectors", detectors);
    ]
