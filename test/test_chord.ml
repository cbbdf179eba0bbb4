(* Tests for the Chord ring substrate and the rendezvous pub/sub
   baseline built on it. *)

module Ring = Chord.Ring
module Key = Chord.Key
module Cp = Baselines.Chord_pubsub
module Z = Geometry.Zorder
module R = Geometry.Rect
module P = Geometry.Point
module Int_set = Baselines.Report.Int_set

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Key arithmetic -------------------------------------------------------- *)

let test_key_basics () =
  check_int "space" (1 lsl 24) Key.space;
  check_int "mod" 5 (Key.of_int (Key.space + 5));
  check_int "negative" (Key.space - 3) (Key.of_int (-3));
  check_int "distance forward" 10 (Key.distance 5 15);
  check_int "distance wraps" (Key.space - 10) (Key.distance 15 5);
  check_int "finger start" (Key.of_int (100 + 1024)) (Key.add_pow2 100 10)

let test_key_intervals () =
  check_bool "in open" true (Key.in_open 5 ~lo:1 ~hi:10);
  check_bool "excl lo" false (Key.in_open 1 ~lo:1 ~hi:10);
  check_bool "excl hi" false (Key.in_open 10 ~lo:1 ~hi:10);
  check_bool "wrapping" true (Key.in_open 2 ~lo:(Key.space - 5) ~hi:10);
  check_bool "half-open incl hi" true (Key.in_half_open 10 ~lo:1 ~hi:10);
  check_bool "half-open excl lo" false (Key.in_half_open 1 ~lo:1 ~hi:10);
  check_bool "degenerate full ring" true (Key.in_half_open 42 ~lo:7 ~hi:7);
  check_bool "hash deterministic" true (Key.hash_node 17 = Key.hash_node 17);
  check_bool "hash scatters" true (Key.hash_node 1 <> Key.hash_node 2)

(* --- Ring ------------------------------------------------------------------- *)

let build_ring ~seed n =
  let ring = Ring.create ~seed () in
  for _ = 1 to n do
    ignore (Ring.join ring);
    ignore (Ring.stabilize ring)
  done;
  ring

let test_ring_forms () =
  let ring = build_ring ~seed:1 20 in
  check_int "all nodes" 20 (Ring.size ring);
  check_bool "consistent" true (Ring.is_consistent ring)

let test_ring_lookup_correct () =
  let ring = build_ring ~seed:2 32 in
  let rng = Sim.Rng.make 99 in
  let ids = Ring.alive_ids ring in
  for _ = 1 to 50 do
    let k = Key.of_int (Sim.Rng.int rng Key.space) in
    let from = Sim.Rng.pick rng ids in
    match Ring.lookup ring ~from k with
    | Some (owner, hops) ->
        check_bool "owner matches ground truth" true
          (Ring.owner_of ring k = Some owner);
        check_bool "hops logarithmic" true (hops <= 2 * 6)
    | None -> Alcotest.fail "lookup failed on a healthy ring"
  done

let test_ring_lookup_hops_scale () =
  (* Hop counts should grow slowly with n (Chord's log n). *)
  let mean_hops n =
    let ring = build_ring ~seed:(100 + n) n in
    let rng = Sim.Rng.make n in
    let ids = Ring.alive_ids ring in
    let total = ref 0 and cnt = ref 0 in
    for _ = 1 to 40 do
      let k = Key.of_int (Sim.Rng.int rng Key.space) in
      match Ring.lookup ring ~from:(Sim.Rng.pick rng ids) k with
      | Some (_, hops) ->
          total := !total + hops;
          incr cnt
      | None -> ()
    done;
    float_of_int !total /. float_of_int (max 1 !cnt)
  in
  let h16 = mean_hops 16 and h128 = mean_hops 128 in
  check_bool
    (Printf.sprintf "hops %.1f@16 -> %.1f@128 stay sublinear" h16 h128)
    true
    (h128 < h16 *. 4.0 && h128 < 10.0)

let test_ring_crash_recovery () =
  let ring = build_ring ~seed:3 40 in
  let rng = Sim.Rng.make 7 in
  (* Kill a quarter, repair, ring must re-form and lookups work. *)
  let victims =
    List.filteri (fun i _ -> i mod 4 = 0) (Ring.alive_ids ring)
  in
  List.iter (fun v -> Ring.crash ring v) victims;
  check_bool "stabilizes after crashes" true (Ring.stabilize ring <> None);
  check_bool "consistent" true (Ring.is_consistent ring);
  let ids = Ring.alive_ids ring in
  for _ = 1 to 20 do
    let k = Key.of_int (Sim.Rng.int rng Key.space) in
    match Ring.lookup ring ~from:(Sim.Rng.pick rng ids) k with
    | Some (owner, _) ->
        check_bool "post-repair owner correct" true
          (Ring.owner_of ring k = Some owner)
    | None -> Alcotest.fail "post-repair lookup failed"
  done

let test_ring_single_node () =
  let ring = build_ring ~seed:4 1 in
  check_bool "self-consistent" true (Ring.is_consistent ring);
  let id = List.hd (Ring.alive_ids ring) in
  (match Ring.lookup ring ~from:id (Key.of_int 12345) with
  | Some (owner, _) -> check_bool "owns everything" true (owner = id)
  | None -> Alcotest.fail "lookup on singleton");
  check_bool "key exposed" true (Ring.key_of ring id <> None)

(* --- Z-order ----------------------------------------------------------------- *)

let space = R.make2 ~x0:0.0 ~y0:0.0 ~x1:100.0 ~y1:100.0

let test_zorder_roundtrip () =
  let z = Z.create ~bits_per_dim:3 ~space () in
  check_int "cells per dim" 8 (Z.cells_per_dim z);
  check_int "total" 64 (Z.total_cells z);
  (* Every point's cell rect contains the point. *)
  let rng = Sim.Rng.make 5 in
  for _ = 1 to 100 do
    let p = P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0) in
    let key = Z.point_key z p in
    check_bool "key in range" true (key >= 0 && key < 64);
    check_bool "cell contains point" true
      (R.contains_point (Z.cell_rect z key) p)
  done

let test_zorder_rect_cover () =
  let z = Z.create ~bits_per_dim:3 ~space () in
  let r = R.make2 ~x0:10.0 ~y0:10.0 ~x1:40.0 ~y1:30.0 in
  let keys = Z.rect_keys z r in
  (* 12.5-wide cells: x cells 0..3, y cells 0..2 -> 4 x 3 = 12 keys *)
  check_int "cover count" 12 (List.length keys);
  (* Every point of the rect falls in a covered cell. *)
  let rng = Sim.Rng.make 6 in
  for _ = 1 to 50 do
    let p =
      P.make2 (Sim.Rng.range rng 10.0 40.0) (Sim.Rng.range rng 10.0 30.0)
    in
    check_bool "point covered" true (List.mem (Z.point_key z p) keys)
  done;
  (* Unbounded space rejected. *)
  check_bool "unbounded rejected" true
    (try ignore (Z.create ~space:(R.universe 2) ()); false
     with Invalid_argument _ -> true)

(* --- Chord pub/sub ------------------------------------------------------------- *)

let random_rect rng =
  let x0 = Sim.Rng.range rng 0.0 90.0 and y0 = Sim.Rng.range rng 0.0 90.0 in
  let w = Sim.Rng.range rng 1.0 10.0 and h = Sim.Rng.range rng 1.0 10.0 in
  R.make2 ~x0 ~y0 ~x1:(x0 +. w) ~y1:(y0 +. h)

let test_chord_pubsub_healthy () =
  let rng = Sim.Rng.make 8 in
  let t = Cp.create ~space ~seed:8 () in
  let ids = List.init 40 (fun _ -> Cp.join_subscriber t (random_rect rng)) in
  check_int "size" 40 (Cp.size t);
  check_bool "ring consistent" true (Cp.ring_consistent t);
  for _ = 1 to 40 do
    let p = P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0) in
    let rep = Cp.publish t ~from:(List.hd ids) p in
    check_int "no FN on healthy ring" 0 rep.Baselines.Report.false_negatives
  done

let test_chord_pubsub_exact_mode () =
  let rng = Sim.Rng.make 9 in
  let t = Cp.create ~exact:true ~space ~seed:9 () in
  let ids = List.init 30 (fun _ -> Cp.join_subscriber t (random_rect rng)) in
  for _ = 1 to 30 do
    let p = P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0) in
    let rep = Cp.publish t ~from:(List.hd ids) p in
    check_int "no FN" 0 rep.Baselines.Report.false_negatives;
    check_int "no FP in exact mode" 0 rep.Baselines.Report.false_positives
  done

let test_chord_pubsub_churn_fragility () =
  (* The §4 claim: rendezvous state is lost on churn until the
     application re-registers. Wide filters ensure events regularly
     match several survivors. *)
  let rng = Sim.Rng.make 10 in
  let wide_rect rng =
    let x0 = Sim.Rng.range rng 0.0 70.0 and y0 = Sim.Rng.range rng 0.0 70.0 in
    let w = Sim.Rng.range rng 10.0 30.0 and h = Sim.Rng.range rng 10.0 30.0 in
    R.make2 ~x0 ~y0 ~x1:(x0 +. w) ~y1:(y0 +. h)
  in
  let t = Cp.create ~space ~seed:10 () in
  let ids = List.init 40 (fun _ -> Cp.join_subscriber t (wide_rect rng)) in
  let victims = List.filteri (fun i _ -> i mod 3 = 0) ids in
  List.iter (fun v -> Cp.crash t v) victims;
  let survivors = List.filter (fun id -> not (List.mem id victims)) ids in
  (* Publish through the wounded ring: some events must go missing
     (lost rendezvous state / broken routes). *)
  let fn_before = ref 0 in
  for _ = 1 to 150 do
    let p = P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0) in
    let rep = Cp.publish t ~from:(List.hd survivors) p in
    fn_before := !fn_before + rep.Baselines.Report.false_negatives
  done;
  check_bool
    (Printf.sprintf "churn causes false negatives (%d)" !fn_before)
    true (!fn_before > 0);
  (* After repair + re-registration, accuracy returns. *)
  Cp.repair t;
  check_bool "ring consistent after repair" true (Cp.ring_consistent t);
  let fn_after = ref 0 in
  for _ = 1 to 150 do
    let p = P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0) in
    let rep = Cp.publish t ~from:(List.hd survivors) p in
    fn_after := !fn_after + rep.Baselines.Report.false_negatives
  done;
  check_int "no FN after repair" 0 !fn_after

(* --- Property: random churn programs ------------------------------------------- *)

let prop_ring_recovers =
  QCheck2.Test.make ~name:"ring re-forms after any join/crash program"
    ~count:25
    QCheck2.Gen.(pair (int_range 1 500) (list_size (int_range 5 30) bool))
    (fun (seed, ops) ->
      let ring = Ring.create ~seed () in
      (* seed population *)
      for _ = 1 to 4 do
        ignore (Ring.join ring);
        ignore (Ring.stabilize ring)
      done;
      List.iter
        (fun is_join ->
          if is_join || Ring.size ring <= 2 then ignore (Ring.join ring)
          else begin
            let ids = Ring.alive_ids ring in
            Ring.crash ring (List.nth ids (seed mod List.length ids))
          end)
        ops;
      match Ring.stabilize ~max_rounds:100 ring with
      | None -> false
      | Some _ ->
          Ring.is_consistent ring
          &&
          (* lookups agree with ground truth everywhere we probe *)
          let ids = Ring.alive_ids ring in
          List.for_all
            (fun probe ->
              let k = Key.of_int (probe * 1_000_003) in
              match Ring.lookup ring ~from:(List.hd ids) k with
              | Some (owner, _) -> Ring.owner_of ring k = Some owner
              | None -> false)
            [ 1; 2; 3; 4; 5 ])

let () =
  Alcotest.run "chord"
    [
      ( "key",
        [
          Alcotest.test_case "arithmetic" `Quick test_key_basics;
          Alcotest.test_case "intervals" `Quick test_key_intervals;
        ] );
      ( "ring",
        [
          Alcotest.test_case "forms a ring" `Quick test_ring_forms;
          Alcotest.test_case "lookups correct" `Quick test_ring_lookup_correct;
          Alcotest.test_case "hops scale" `Slow test_ring_lookup_hops_scale;
          Alcotest.test_case "crash recovery" `Quick test_ring_crash_recovery;
          Alcotest.test_case "single node" `Quick test_ring_single_node;
        ] );
      ( "zorder",
        [
          Alcotest.test_case "point/cell roundtrip" `Quick test_zorder_roundtrip;
          Alcotest.test_case "rect cover" `Quick test_zorder_rect_cover;
        ] );
      ( "pubsub",
        [
          Alcotest.test_case "healthy ring exact delivery" `Quick
            test_chord_pubsub_healthy;
          Alcotest.test_case "exact mode" `Quick test_chord_pubsub_exact_mode;
          Alcotest.test_case "churn fragility + repair" `Quick
            test_chord_pubsub_churn_fragility;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_ring_recovers ]);
    ]
