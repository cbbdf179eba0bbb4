(* Tests for event dissemination (§2.3, §3): zero false negatives,
   bounded false positives, the paper's running example, and the
   typed pub/sub facade. *)

module R = Geometry.Rect
module P = Geometry.Point
module O = Drtree.Overlay
module Inv = Drtree.Invariant
module Ps = Drtree.Pubsub
module Sub = Filter.Subscription
module Ev = Filter.Event
module V = Filter.Value
module Pred = Filter.Predicate

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rect x0 y0 x1 y1 = R.make2 ~x0 ~y0 ~x1 ~y1

let random_rect rng =
  let x0 = Sim.Rng.range rng 0.0 90.0 and y0 = Sim.Rng.range rng 0.0 90.0 in
  let w = Sim.Rng.range rng 1.0 10.0 and h = Sim.Rng.range rng 1.0 10.0 in
  rect x0 y0 (x0 +. w) (y0 +. h)

let build ~seed n =
  let rng = Sim.Rng.make (seed * 31) in
  let ov = O.create ~seed () in
  for _ = 1 to n do
    ignore (O.join ov (random_rect rng))
  done;
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  ov

(* --- Figure 1 / Figure 4 example --------------------------------------------- *)

(* The paper's sample subscriptions, transcribed to concrete
   rectangles preserving the containment relations of Figure 1:
   S4 inside both S2 and S3; S1, S8 inside S3; S6 inside S5. *)
let paper_rects =
  [
    ("S1", rect 42.0 30.0 52.0 40.0);
    ("S2", rect 5.0 25.0 35.0 55.0);
    ("S3", rect 20.0 20.0 70.0 60.0);
    ("S4", rect 25.0 30.0 33.0 45.0);
    ("S5", rect 60.0 65.0 95.0 95.0);
    ("S6", rect 70.0 70.0 80.0 80.0);
    ("S7", rect 75.0 5.0 95.0 18.0);
    ("S8", rect 55.0 42.0 65.0 52.0);
  ]

let test_paper_example () =
  let ov = O.create ~seed:7 () in
  let ids =
    List.map (fun (name, r) -> (name, O.join ov r)) paper_rects
  in
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  check_bool "legal" true (Inv.is_legal ov);
  check_int "no weak containment violations" 0
    (Inv.weak_containment_violations ov);
  (* Event 'a' inside S2 ∩ S3 ∩ S4: exactly those three receive it. *)
  let a = P.make2 28.0 35.0 in
  let publisher = List.assoc "S2" ids in
  let rep = O.publish ov ~from:publisher a in
  let expect = List.sort compare [ List.assoc "S2" ids; List.assoc "S3" ids;
                                   List.assoc "S4" ids ] in
  check_bool "matched set" true
    (Sim.Node_id.Set.elements rep.O.matched = expect);
  check_int "no false negatives" 0 rep.O.false_negatives;
  check_bool "delivered = matched" true
    (Sim.Node_id.Set.equal rep.O.delivered rep.O.matched);
  (* Event 'd' matching nobody: no subscriber receives it wrongly
     beyond MBR dead space, and surely no delivery. *)
  let d = P.make2 2.0 90.0 in
  let rep_d = O.publish ov ~from:publisher d in
  check_int "nobody matched" 0 (Sim.Node_id.Set.cardinal rep_d.O.matched);
  check_int "no deliveries" 0 (Sim.Node_id.Set.cardinal rep_d.O.delivered)

(* --- Zero false negatives across workloads (the paper's central claim) ------- *)

let no_false_negatives ~seed ~n ~events () =
  let ov = build ~seed n in
  let rng = Sim.Rng.make (seed + 10_000) in
  let ids = O.alive_ids ov in
  for _ = 1 to events do
    let p = P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0) in
    let rep = O.publish ov ~from:(Sim.Rng.pick rng ids) p in
    check_int "zero false negatives" 0 rep.O.false_negatives;
    check_bool "delivered covers matched" true
      (Sim.Node_id.Set.subset rep.O.matched rep.O.delivered)
  done

let test_no_fn_small () = no_false_negatives ~seed:1 ~n:30 ~events:50 ()
let test_no_fn_medium () = no_false_negatives ~seed:2 ~n:150 ~events:50 ()

let test_no_fn_after_churn () =
  let ov = build ~seed:3 100 in
  let rng = Sim.Rng.make 31337 in
  (* Crash some, corrupt some, stabilize, then check accuracy. *)
  let victims = Drtree.Corrupt.random_victims ov rng ~fraction:0.2 in
  List.iteri
    (fun i v ->
      if i mod 2 = 0 then O.crash ov v
      else ignore (Drtree.Corrupt.any ov rng v))
    victims;
  ignore (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov);
  check_bool "legal" true (Inv.is_legal ov);
  let ids = O.alive_ids ov in
  for _ = 1 to 40 do
    let p = P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0) in
    let rep = O.publish ov ~from:(Sim.Rng.pick rng ids) p in
    check_int "zero FN after churn" 0 rep.O.false_negatives
  done

(* --- False positive rate (§4: "2-3% with most workloads") --------------------- *)

let test_fp_rate_bounded () =
  let ov = build ~seed:4 256 in
  let rng = Sim.Rng.make 999 in
  let ids = O.alive_ids ov in
  let total_fp = ref 0 and total_possible = ref 0 in
  for _ = 1 to 200 do
    let p = P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0) in
    let rep = O.publish ov ~from:(Sim.Rng.pick rng ids) p in
    total_fp := !total_fp + rep.O.false_positives;
    total_possible := !total_possible + List.length ids
  done;
  let rate = float_of_int !total_fp /. float_of_int !total_possible in
  (* The paper reports 2-3%; allow up to 10% for small networks. *)
  check_bool (Printf.sprintf "fp rate %.2f%% below 10%%" (100.0 *. rate)) true
    (rate < 0.10)

(* --- Message cost and hop depth ------------------------------------------------ *)

let test_publish_cost () =
  let ov = build ~seed:5 200 in
  let rng = Sim.Rng.make 123 in
  let ids = O.alive_ids ov in
  let n = List.length ids in
  for _ = 1 to 50 do
    let p = P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0) in
    let rep = O.publish ov ~from:(Sim.Rng.pick rng ids) p in
    check_bool "messages below flooding" true (rep.O.messages < n);
    check_bool "hops bounded by ~2 heights" true
      (rep.O.max_hops <= (2 * O.height ov) + 2)
  done

let test_publish_dead_publisher () =
  let ov = build ~seed:6 20 in
  let victim = List.hd (O.alive_ids ov) in
  O.crash ov victim;
  check_bool "publish from dead raises" true
    (try
       ignore (O.publish ov ~from:victim (P.make2 1.0 1.0));
       false
     with Invalid_argument _ -> true)

(* --- FP-driven reorganization (§3.2 dynamic reorganizations) ------------------- *)

let test_fp_swap_reduces_fp () =
  (* A parent with a filter far from the hot region, its child inside
     it: after enough hot events, the swap should fire. *)
  let ov = O.create ~seed:8 () in
  let ids = ref [] in
  (* One big "umbrella" filter and several small hot filters inside a
     corner of it. *)
  ids := O.join ov (rect 0.0 0.0 100.0 100.0) :: !ids;
  for i = 0 to 5 do
    let o = 2.0 *. float_of_int i in
    ids := O.join ov (rect (80.0 +. o /. 2.0) 80.0 (82.0 +. o) 95.0) :: !ids
  done;
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  let rng = Sim.Rng.make 4 in
  let all = O.alive_ids ov in
  for _ = 1 to 60 do
    let p = P.make2 (Sim.Rng.range rng 80.0 95.0) (Sim.Rng.range rng 80.0 95.0) in
    ignore (O.publish ov ~from:(Sim.Rng.pick rng all) p)
  done;
  let swaps = O.fp_swap_round ov in
  (* The swap may or may not be beneficial depending on layout; the
     contract is: it runs, stays legal-recoverable, and keeps
     delivery exact. *)
  check_bool "swap count non-negative" true (swaps >= 0);
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  check_bool "legal after swaps" true (Inv.is_legal ov);
  for _ = 1 to 20 do
    let p = P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0) in
    let rep = O.publish ov ~from:(Sim.Rng.pick rng all) p in
    check_int "still zero FN" 0 rep.O.false_negatives
  done

let test_fp_swap_round_clears_counters () =
  (* The pass consumes the interest record: with nothing recorded it
     performs zero swaps, and after any pass the per-instance counters
     are gone so the next window starts from scratch. *)
  let ov = build ~seed:9 40 in
  let tele = O.telemetry ov in
  check_int "no swaps without recorded FP interest" 0 (O.fp_swap_round ov);
  check_int "no counters without traffic" 0
    (List.length (Drtree.Telemetry.fp_entries tele));
  let rng = Sim.Rng.make 7 in
  let all = O.alive_ids ov in
  for _ = 1 to 40 do
    let p =
      P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0)
    in
    ignore (O.publish ov ~from:(Sim.Rng.pick rng all) p)
  done;
  ignore (O.fp_swap_round ov);
  check_int "counters cleared after the pass" 0
    (List.length (Drtree.Telemetry.fp_entries tele));
  check_int "a pass over cleared counters swaps nothing" 0
    (O.fp_swap_round ov)

(* --- Ground truth under unrepaired churn ---------------------------------------- *)

(* [matched] is answered from a filter index that is caught up lazily
   and never told about departures. Whatever the membership history, it
   must equal the exhaustive scan over the live processes: random joins
   interleaved with every departure kind and with publishes, with no
   stabilization in between, on both store layouts and on one tree as
   well as a four-shard forest. *)
let brute_matched ov point =
  List.fold_left
    (fun acc id ->
      match O.state ov id with
      | Some s when R.contains_point (Drtree.State.filter s) point ->
          Sim.Node_id.Set.add id acc
      | Some _ | None -> acc)
    Sim.Node_id.Set.empty (O.alive_ids ov)

let ground_truth_under_churn ~layout ~forest ~name =
  QCheck2.Test.make ~name ~count:8
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let cfg = Drtree.Config.make ~layout ~forest () in
      let ov = O.create ~cfg ~seed () in
      let rng = Sim.Rng.make seed in
      let join_some k =
        for _ = 1 to k do
          ignore (O.join ov (random_rect rng))
        done
      in
      join_some 2;
      for _ = 1 to 120 do
        let alive = O.alive_ids ov in
        match (Sim.Rng.int rng 10, alive) with
        | (0 | 1), _ | _, ([] | [ _ ]) -> join_some 1
        | 2, _ ->
            (* a burst can outgrow the index: its bulk-load path *)
            join_some (1 + Sim.Rng.int rng 16)
        | 3, _ -> O.leave ov (Sim.Rng.pick rng alive)
        | 4, _ -> O.leave_reconnect ov (Sim.Rng.pick rng alive)
        | 5, _ -> O.crash ov (Sim.Rng.pick rng alive)
        | 6, _ -> O.crash_silent ov (Sim.Rng.pick rng alive)
        | _ ->
            let p =
              P.make2 (Sim.Rng.range rng 0.0 100.0)
                (Sim.Rng.range rng 0.0 100.0)
            in
            let rep = O.publish ov ~from:(Sim.Rng.pick rng alive) p in
            let want = brute_matched ov p in
            if not (Sim.Node_id.Set.equal rep.O.matched want) then
              QCheck2.Test.fail_reportf
                "matched %d processes, the live scan %d (seed %d)"
                (Sim.Node_id.Set.cardinal rep.O.matched)
                (Sim.Node_id.Set.cardinal want) seed
      done;
      true)

let ground_truth_props =
  List.map QCheck_alcotest.to_alcotest
    [
      ground_truth_under_churn ~layout:Drtree.Config.Flat
        ~forest:Drtree.Config.Single ~name:"matched = live scan (flat, single)";
      ground_truth_under_churn ~layout:Drtree.Config.Hashed
        ~forest:Drtree.Config.Single
        ~name:"matched = live scan (hashed, single)";
      ground_truth_under_churn ~layout:Drtree.Config.Flat
        ~forest:(Drtree.Config.Sharded { shards = 4 })
        ~name:"matched = live scan (flat, 4 shards)";
      ground_truth_under_churn ~layout:Drtree.Config.Hashed
        ~forest:(Drtree.Config.Sharded { shards = 4 })
        ~name:"matched = live scan (hashed, 4 shards)";
    ]

(* --- Bounded publish history ---------------------------------------------------- *)

(* A publish keeps nothing once it returns: with the per-process dedup
   windows full (capacity 16, reached within the first few hundred
   events), the live heap after 10k publishes on one overlay is the
   live heap after 1k, give or take noise far below one retained
   delivery record per publish. *)
let test_history_bounded () =
  let rng = Sim.Rng.make 77 in
  let ov = O.create ~cfg:(Drtree.Config.make ~seen_capacity:16 ()) ~seed:12 () in
  for _ = 1 to 256 do
    ignore (O.join ov (random_rect rng))
  done;
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  let ids = O.alive_ids ov in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let at_1k = ref 0 in
  for i = 1 to 10_000 do
    let p = P.make2 (Sim.Rng.range rng 0.0 100.0) (Sim.Rng.range rng 0.0 100.0) in
    ignore (O.publish ov ~from:(Sim.Rng.pick rng ids) p);
    if i = 1_000 then at_1k := live_words ()
  done;
  let growth = live_words () - !at_1k in
  (* a later use keeps the overlay reachable through the measurement *)
  check_int "overlay intact" 256 (O.size ov);
  check_bool
    (Printf.sprintf "live words grew by %d between publish 1k and 10k" growth)
    true (growth < 100_000)

(* --- Typed pub/sub facade ------------------------------------------------------- *)

let schema = Filter.Schema.make [ "price"; "volume" ]

let range_sub plo phi vlo vhi =
  Sub.make
    [
      Pred.between "price" (V.float plo) (V.float phi);
      Pred.between "volume" (V.float vlo) (V.float vhi);
    ]

let test_pubsub_basic () =
  let ps = Ps.create ~schema ~seed:1 () in
  let cheap = Ps.subscribe ps (range_sub 0.0 50.0 0.0 1000.0) in
  let mid = Ps.subscribe ps (range_sub 40.0 60.0 0.0 1000.0) in
  let vol = Ps.subscribe ps (range_sub 0.0 100.0 900.0 1000.0) in
  let e = Ev.make [ ("price", V.float 45.0); ("volume", V.float 950.0) ] in
  let rep = Ps.publish ps ~from:cheap e in
  check_bool "all three interested" true
    (Sim.Node_id.Set.equal rep.Ps.interested
       (Sim.Node_id.Set.of_list [ cheap; mid; vol ]));
  check_int "zero FN" 0 rep.Ps.false_negatives;
  let e2 = Ev.make [ ("price", V.float 95.0); ("volume", V.float 10.0) ] in
  let rep2 = Ps.publish ps ~from:cheap e2 in
  check_int "nobody interested" 0 (Sim.Node_id.Set.cardinal rep2.Ps.interested);
  check_int "zero FN again" 0 rep2.Ps.false_negatives

let test_pubsub_strict_bounds () =
  (* A strict filter (price < 50) must not match the boundary event
     even though the routing rectangle is closed. *)
  let ps = Ps.create ~schema ~seed:2 () in
  let strict =
    Ps.subscribe ps
      (Sub.make
         [
           Pred.make "price" Pred.Lt (V.float 50.0);
           Pred.between "volume" (V.float 0.0) (V.float 100.0);
         ])
  in
  let other = Ps.subscribe ps (range_sub 0.0 100.0 0.0 100.0) in
  ignore other;
  let boundary = Ev.make [ ("price", V.float 50.0); ("volume", V.float 5.0) ] in
  let rep = Ps.publish ps ~from:strict boundary in
  check_bool "strict not interested" true
    (not (Sim.Node_id.Set.mem strict rep.Ps.interested));
  check_bool "strict not delivered" true
    (not (Sim.Node_id.Set.mem strict rep.Ps.delivered));
  check_int "zero FN" 0 rep.Ps.false_negatives

let test_pubsub_unsubscribe () =
  let ps = Ps.create ~schema ~seed:3 () in
  let a = Ps.subscribe ps (range_sub 0.0 50.0 0.0 50.0) in
  let b = Ps.subscribe ps (range_sub 0.0 50.0 0.0 50.0) in
  let c = Ps.subscribe ps (range_sub 25.0 75.0 25.0 75.0) in
  ignore a;
  Ps.unsubscribe ps b;
  ignore (Ps.stabilize ps);
  check_int "two left" 2 (Ps.size ps);
  let e = Ev.make [ ("price", V.float 30.0); ("volume", V.float 30.0) ] in
  let rep = Ps.publish ps ~from:c e in
  check_bool "b not in interested" true
    (not (Sim.Node_id.Set.mem b rep.Ps.interested));
  check_int "zero FN" 0 rep.Ps.false_negatives

let test_pubsub_subscription_lookup () =
  let ps = Ps.create ~schema ~seed:4 () in
  let sub = range_sub 1.0 2.0 3.0 4.0 in
  let id = Ps.subscribe ps sub in
  check_bool "stored" true
    (match Ps.subscription ps id with
    | Some s -> Sub.equal s sub
    | None -> false);
  check_bool "missing" true (Ps.subscription ps 999 = None)

let () =
  Alcotest.run "dissemination"
    [
      ( "paper-example",
        [ Alcotest.test_case "figure 1/4 scenario" `Quick test_paper_example ] );
      ( "accuracy",
        [
          Alcotest.test_case "no FN (small)" `Quick test_no_fn_small;
          Alcotest.test_case "no FN (medium)" `Slow test_no_fn_medium;
          Alcotest.test_case "no FN after churn" `Slow test_no_fn_after_churn;
          Alcotest.test_case "FP rate bounded" `Slow test_fp_rate_bounded;
        ] );
      ( "cost",
        [
          Alcotest.test_case "messages and hops" `Slow test_publish_cost;
          Alcotest.test_case "dead publisher" `Quick test_publish_dead_publisher;
          Alcotest.test_case "history bounded over 10k publishes" `Slow
            test_history_bounded;
        ] );
      ("ground-truth", ground_truth_props);
      ( "reorganization",
        [
          Alcotest.test_case "fp swap" `Quick test_fp_swap_reduces_fp;
          Alcotest.test_case "counters cleared after pass" `Quick
            test_fp_swap_round_clears_counters;
        ] );
      ( "pubsub",
        [
          Alcotest.test_case "typed basics" `Quick test_pubsub_basic;
          Alcotest.test_case "strict bounds exact" `Quick
            test_pubsub_strict_bounds;
          Alcotest.test_case "unsubscribe" `Quick test_pubsub_unsubscribe;
          Alcotest.test_case "subscription lookup" `Quick
            test_pubsub_subscription_lookup;
        ] );
    ]
