(* The incremental repair scheduler (DESIGN.md §10): dirty-set
   marking on every corruption path, the background scan lane's
   guarantee against silent (unmarked) corruption, quiescent-round
   telemetry gauges, full-sweep vs incremental equivalence over random
   traces (the mck scheduler axis, fixed traces in axis_traces.ml) and
   the rate of its height carve-out, and the bounded [State.seen]
   dedup window. *)

module R = Geometry.Rect
module O = Drtree.Overlay
module St = Drtree.State
module Inv = Drtree.Invariant
module Cfg = Drtree.Config
module Corrupt = Drtree.Corrupt
module Tele = Drtree.Telemetry
module Trace = Mck.Trace
module Fuzz = Mck.Fuzz

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual
let check_int msg expected actual = Alcotest.(check int) msg expected actual

let random_rect rng =
  let x0 = Sim.Rng.range rng 0.0 90.0 and y0 = Sim.Rng.range rng 0.0 90.0 in
  let w = Sim.Rng.range rng 1.0 10.0 and h = Sim.Rng.range rng 1.0 10.0 in
  R.make2 ~x0 ~y0 ~x1:(x0 +. w) ~y1:(y0 +. h)

let legal ov =
  match Inv.check ov with
  | [] -> true
  | vs ->
      List.iter
        (fun v -> Format.eprintf "violation: %a@." Inv.pp_violation v)
        vs;
      false

let build ?(cfg = Cfg.default) ~seed n =
  let rng = Sim.Rng.make (seed * 7919) in
  let ov = O.create ~cfg ~seed () in
  for _ = 1 to n do
    ignore (O.join ov (random_rect rng))
  done;
  ignore (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov);
  ov

(* --- Corrupt primitives mark their victim dirty -------------------------- *)

(* Satellite: every [Corrupt] primitive (with default [?mark]) must
   land its victim in the dirty set — the incremental scheduler only
   repairs what is marked, so an unmarked corruption path would be a
   liveness bug under [Incremental] (modulo the slow scan lane). *)

let corrupt_marks_dirty =
  let primitives =
    [
      ("parent", Corrupt.parent);
      ("children", Corrupt.children);
      ("mbr", Corrupt.mbr);
      ("underloaded", Corrupt.underloaded);
      ("any", Corrupt.any);
    ]
  in
  QCheck2.Test.make ~name:"every Corrupt primitive marks its victim dirty"
    ~count:60
    QCheck2.Gen.(pair int (int_range 0 (List.length primitives - 1)))
    (fun (seed, pidx) ->
      let seed = (abs seed mod 1000) + 1 in
      let name, primitive = List.nth primitives pidx in
      let cfg = Cfg.make ~scheduler:Cfg.Incremental () in
      let ov = build ~cfg ~seed 24 in
      (* Drain to quiescence so the only dirt afterwards is ours. *)
      ignore (O.stabilize ~max_rounds:50 ~legal:Inv.is_legal ov);
      if O.dirty_size ov <> 0 then
        QCheck2.Test.fail_reportf "dirty set not drained before corruption";
      let rng = Sim.Rng.make (seed * 31 + pidx) in
      let victim = Sim.Rng.pick rng (O.alive_ids ov) in
      let applied = primitive ov rng victim in
      if applied then begin
        if O.dirty_size ov = 0 then
          QCheck2.Test.fail_reportf "Corrupt.%s left the dirty set empty" name;
        let victim_marked =
          match O.state ov victim with
          | None -> false
          | Some s ->
              let marked = ref false in
              for h = 0 to St.top s do
                if O.is_dirty ov victim h then marked := true
              done;
              !marked
        in
        if not victim_marked then
          QCheck2.Test.fail_reportf "Corrupt.%s did not mark victim %a" name
            Sim.Node_id.pp victim
      end;
      true)

(* --- Silent corruption: the scan lane finds unmarked damage -------------- *)

(* [~mark:false] models state damage with no observable write — no
   dirty entry. The background lane visits every alive process each
   [1 / scan_fraction] rounds, so plain [stabilize_round]s (no global
   legality oracle) must still heal it within a bounded number of
   rounds. *)

let test_silent_corruption_scan_lane () =
  List.iter
    (fun seed ->
      let cfg = Cfg.make ~scheduler:Cfg.Incremental ~scan_fraction:0.25 () in
      let ov = build ~cfg ~seed 32 in
      ignore (O.stabilize ~max_rounds:50 ~legal:Inv.is_legal ov);
      check_bool "legal before corruption" true (legal ov);
      check_int "quiescent before corruption" 0 (O.dirty_size ov);
      let rng = Sim.Rng.make (seed * 13) in
      let corrupted = ref false in
      let victims = O.alive_ids ov in
      List.iteri
        (fun i v ->
          if i < 3 then
            if Corrupt.any ~mark:false ov rng v then corrupted := true)
        victims;
      check_bool "some corruption applied" true !corrupted;
      check_int "silent corruption leaves the dirty set empty" 0
        (O.dirty_size ov);
      (* scan_fraction 0.25 covers all 32 nodes in <= 4 rounds; repairs
         mark follow-up work that drains over the next rounds. *)
      for _ = 1 to 16 do
        O.stabilize_round ov
      done;
      check_bool "scan lane healed silent corruption" true (legal ov))
    [ 3; 7; 11 ]

(* And the quiescence loop itself: [stabilize] sees an empty dirty set
   over an illegal tree, escalates via mark-all, and converges. *)
let test_silent_corruption_escalation () =
  let cfg = Cfg.make ~scheduler:Cfg.Incremental () in
  let ov = build ~cfg ~seed:5 32 in
  ignore (O.stabilize ~max_rounds:50 ~legal:Inv.is_legal ov);
  let rng = Sim.Rng.make 55 in
  let applied = ref 0 in
  List.iteri
    (fun i v ->
      if i mod 8 = 0 && Corrupt.any ~mark:false ov rng v then incr applied)
    (O.alive_ids ov);
  check_bool "some corruption applied" true (!applied > 0);
  check_int "dirty set still empty" 0 (O.dirty_size ov);
  (match O.stabilize ~max_rounds:50 ~legal:Inv.is_legal ov with
  | Some _ -> ()
  | None -> Alcotest.fail "stabilize did not converge after escalation");
  check_bool "legal after escalation" true (legal ov)

(* --- Quiescent-round gauges ---------------------------------------------- *)

let execs_of_round ov f =
  let tele = O.telemetry ov in
  let e0 = Tele.execs tele in
  f ();
  Tele.execs tele - e0

let test_quiescent_round_gauges () =
  let n = 64 in
  let cfg_i = Cfg.make ~scheduler:Cfg.Incremental () in
  let ov_i = build ~cfg:cfg_i ~seed:9 n in
  let ov_f = build ~seed:9 n in
  ignore (O.stabilize ~max_rounds:50 ~legal:Inv.is_legal ov_i);
  check_int "quiescent" 0 (O.dirty_size ov_i);
  let execs_i = execs_of_round ov_i (fun () -> O.stabilize_round ov_i) in
  let execs_f = execs_of_round ov_f (fun () -> O.stabilize_round ov_f) in
  (match Tele.last_round (O.telemetry ov_i) with
  | None -> Alcotest.fail "no round report"
  | Some r ->
      check_int "queue depth is zero on a quiescent round" 0
        r.Tele.queue_depth;
      check_bool "incremental round skips work when quiescent" true
        (r.Tele.skipped > 0);
      check_int "execs gauge matches the telemetry counter" execs_i
        r.Tele.execs);
  (match Tele.last_round (O.telemetry ov_f) with
  | None -> Alcotest.fail "no full-sweep round report"
  | Some r -> check_int "full sweep never reports skips" 0 r.Tele.skipped);
  check_bool
    (Printf.sprintf
       "quiescent incremental round >=5x cheaper (full=%d incr=%d)" execs_f
       execs_i)
    true
    (execs_i * 5 <= execs_f)

(* Marking one (process, height) instance repairs through the normal
   incremental path without waiting for the scan lane. *)
let test_targeted_mark_repairs () =
  let cfg = Cfg.make ~scheduler:Cfg.Incremental ~scan_fraction:0.0 () in
  let ov = build ~cfg ~seed:21 32 in
  ignore (O.stabilize ~max_rounds:50 ~legal:Inv.is_legal ov);
  let rng = Sim.Rng.make 210 in
  let victim = Sim.Rng.pick rng (O.alive_ids ov) in
  check_bool "corruption applied" true (Corrupt.mbr ov rng victim);
  check_bool "victim instance enqueued" true (O.dirty_size ov > 0);
  (match O.stabilize ~max_rounds:50 ~legal:Inv.is_legal ov with
  | Some rounds -> check_bool "repaired in a few rounds" true (rounds <= 10)
  | None -> Alcotest.fail "marked corruption not repaired");
  check_bool "legal after targeted repair" true (legal ov);
  check_int "drained" 0 (O.dirty_size ov)

(* --- The scheduler differential's height carve-out ------------------------ *)

(* The mck scheduler axis leaves height out (DESIGN.md §10): on strict
   traces (clean FIFO) the two schedulers can settle on different,
   equally legal heights, but at most once per thousand traces. *)
let test_scheduler_height_carve_out () =
  let rng = Sim.Rng.make 28_000 in
  let traces = 4_000 and differ = ref 0 in
  for i = 0 to traces - 1 do
    let mode = if i mod 2 = 0 then Trace.Shared else Trace.Message_passing in
    let tr = Fuzz.random_trace rng ~mode ~sched:Mck.Schedule.Fifo () in
    let height scheduler =
      let config = { tr.Trace.config with Cfg.scheduler } in
      let _, s, _ = Fuzz.run_trace_full { tr with Trace.config } in
      s.Fuzz.final_height
    in
    if height Cfg.Full_sweep <> height Cfg.Incremental then incr differ
  done;
  check_bool
    (Printf.sprintf "%d of %d strict traces differ in height" !differ traces)
    true
    (!differ * 1000 <= traces)

(* --- Bounded State.seen dedup window ------------------------------------- *)

let test_seen_window_bound () =
  let r = R.make2 ~x0:0.0 ~y0:0.0 ~x1:1.0 ~y1:1.0 in
  let s = St.create ~seen_capacity:8 ~id:1 ~filter:r () in
  for e = 1 to 100 do
    check_bool "first sight is fresh" true (St.mark_seen s e)
  done;
  check_bool "window stays bounded" true (St.seen_size s <= 8);
  (* Recent ids still dedup... *)
  for e = 93 to 100 do
    check_bool "recent id dedups" false (St.mark_seen s e)
  done;
  (* ...while evicted ids read as fresh again (FIFO eviction). *)
  check_bool "evicted id is fresh again" true (St.mark_seen s 1);
  St.clear_seen s;
  check_int "clear empties the window" 0 (St.seen_size s)

let test_seen_capacity_validation () =
  let r = R.make2 ~x0:0.0 ~y0:0.0 ~x1:1.0 ~y1:1.0 in
  (try
     ignore (St.create ~seen_capacity:0 ~id:1 ~filter:r ());
     Alcotest.fail "seen_capacity = 0 must be rejected"
   with Invalid_argument _ -> ());
  try
    ignore (Cfg.make ~seen_capacity:0 ());
    Alcotest.fail "Config.make ~seen_capacity:0 must be rejected"
  with Invalid_argument _ -> ()

let test_overlay_threads_seen_capacity () =
  let cfg = Cfg.make ~seen_capacity:4 () in
  let ov = build ~cfg ~seed:13 12 in
  let rng = Sim.Rng.make 130 in
  for _ = 1 to 40 do
    let from = Sim.Rng.pick rng (O.alive_ids ov) in
    let x = Sim.Rng.range rng 0.0 100.0
    and y = Sim.Rng.range rng 0.0 100.0 in
    ignore (O.publish ov ~from (Geometry.Point.make2 x y))
  done;
  O.iter_states ov (fun id s ->
      check_bool
        (Printf.sprintf "n%d's seen window bounded" id)
        true
        (St.seen_size s <= 4))

(* --- Config scheduler plumbing ------------------------------------------- *)

(* The scheduler's text form is its knob-table row: the [scheduler] key
   of Config.to_string / of_string. *)
let test_scheduler_strings () =
  List.iter
    (fun s ->
      let c = { Cfg.default with Cfg.scheduler = s } in
      match Cfg.of_string (Cfg.to_string c) with
      | Ok c' -> check_bool "scheduler string round-trip" true (c' = c)
      | Error e -> Alcotest.failf "scheduler round-trip failed: %s" e)
    [ Cfg.Full_sweep; Cfg.Incremental ];
  match Cfg.of_string "scheduler=bogus" with
  | Ok _ -> Alcotest.fail "bogus scheduler accepted"
  | Error _ -> ()

let () =
  Alcotest.run "scheduler"
    [
      ( "dirty-set",
        [
          QCheck_alcotest.to_alcotest corrupt_marks_dirty;
          Alcotest.test_case "targeted mark repairs without scan lane" `Quick
            test_targeted_mark_repairs;
        ] );
      ( "scan-lane",
        [
          Alcotest.test_case "silent corruption healed by scan lane" `Quick
            test_silent_corruption_scan_lane;
          Alcotest.test_case "quiescence escalation heals silent corruption"
            `Quick test_silent_corruption_escalation;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "quiescent rounds skip work" `Quick
            test_quiescent_round_gauges;
        ] );
      ( "differential",
        Axis_traces.test_cases "scheduler"
          [
            "random traces scheduler-equivalent";
            "wire traces scheduler-equivalent";
          ]
        @ [
            Alcotest.test_case "strict height carve-out <= 1/1000" `Slow
              test_scheduler_height_carve_out;
          ] );
      ( "seen-window",
        [
          Alcotest.test_case "FIFO window bound and dedup" `Quick
            test_seen_window_bound;
          Alcotest.test_case "capacity validation" `Quick
            test_seen_capacity_validation;
          Alcotest.test_case "overlay threads seen_capacity" `Quick
            test_overlay_threads_seen_capacity;
        ] );
      ( "config",
        [
          Alcotest.test_case "scheduler string round-trip" `Quick
            test_scheduler_strings;
        ] );
    ]
