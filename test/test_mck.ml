(* Tests for the adversarial model-checking harness (lib/mck): schedule
   strategies, the fuzz driver's determinism, that every differential
   axis has fixed traces (axis_traces.ml), the planted cover-sweep bug
   (detect -> shrink -> serialize -> replay), and the trace codec. *)

module O = Drtree.Overlay
module Inv = Drtree.Invariant
module R = Geometry.Rect
module P = Geometry.Point
module Schedule = Mck.Schedule
module Trace = Mck.Trace
module Fuzz = Mck.Fuzz
module Shrink = Mck.Shrink

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let rect x0 y0 x1 y1 = R.make2 ~x0 ~y0 ~x1 ~y1
let failure_str f = Format.asprintf "%a" Fuzz.pp_failure f

let outcome_str = function
  | Fuzz.Passed -> "passed"
  | Fuzz.Failed f -> failure_str f

(* --- Schedule strategies ------------------------------------------------------- *)

let build_under ?drop ?dup ~sched ~seed n =
  let ov = O.create ~seed () in
  let strat = Schedule.make ?drop ?dup ~seed:(seed * 7) sched in
  Schedule.install strat (O.engine ov);
  let rng = Sim.Rng.make (seed * 131) in
  for _ = 1 to n do
    ignore (O.join ov (Fuzz.random_rect rng))
  done;
  Schedule.uninstall (O.engine ov);
  ov

let test_fifo_matches_no_scheduler () =
  (* The FIFO strategy is the engine's own order: identical overlay. *)
  let a = build_under ~sched:Schedule.Fifo ~seed:41 30 in
  let b =
    let ov = O.create ~seed:41 () in
    let rng = Sim.Rng.make (41 * 131) in
    for _ = 1 to 30 do
      ignore (O.join ov (Fuzz.random_rect rng))
    done;
    ov
  in
  check_int "same height" (O.height b) (O.height a);
  check_bool "same adjacency" true
    (Drtree.Export.adjacency a = Drtree.Export.adjacency b)

let test_random_schedule_still_stabilizes () =
  let ov = build_under ~sched:Schedule.Random ~seed:42 40 in
  check_bool "stabilizes after reordered joins" true
    (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov <> None)

let test_delay_checks_still_stabilizes () =
  let ov = build_under ~sched:Schedule.Delay_checks ~seed:43 40 in
  check_bool "stabilizes after check-starved joins" true
    (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov <> None)

let test_round_robin_still_stabilizes () =
  let ov = build_under ~sched:Schedule.Round_robin ~seed:44 40 in
  check_bool "stabilizes after round-robin joins" true
    (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov <> None)

let test_fault_counters () =
  let ov = build_under ~drop:0.2 ~dup:0.15 ~sched:Schedule.Random ~seed:45 40 in
  let eng = O.engine ov in
  check_bool "some messages lost" true (Sim.Engine.messages_lost eng > 0);
  check_bool "some messages duplicated" true
    (Sim.Engine.messages_duplicated eng > 0);
  check_bool "stabilizes afterwards" true
    (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov <> None)

let test_duplication_budget () =
  (* The fault budget keeps hostile runs terminating; exceeding it is
     the supercritical regime (see Schedule.make). *)
  let ov = build_under ~dup:0.5 ~sched:Schedule.Random ~seed:46 40 in
  check_bool "duplications capped by the budget" true
    (Sim.Engine.messages_duplicated (O.engine ov) <= 64)

let test_kind_strings () =
  List.iter
    (fun k ->
      match Schedule.kind_of_string (Schedule.kind_to_string k) with
      | Ok k' -> check_bool "kind round-trips" true (k = k')
      | Error e -> Alcotest.fail e)
    Schedule.all_kinds;
  check_bool "unknown kind rejected" true
    (Result.is_error (Schedule.kind_of_string "zeal"))

(* --- Fuzz driver --------------------------------------------------------------- *)

let gen_trace rng mode i =
  let sched = List.nth Schedule.all_kinds (i mod 4) in
  let faulty = i mod 3 = 2 in
  Fuzz.random_trace rng
    ~nodes:(4 + (i mod 7))
    ~ops:(4 + (i mod 9))
    ~mode ~sched
    ~drop:(if faulty then 0.15 else 0.0)
    ~dup:(if faulty then 0.1 else 0.0)
    ()

let fuzz_mode name mode =
  Alcotest.test_case name `Slow (fun () ->
      let rng = Sim.Rng.make 0xf0071 in
      match Fuzz.fuzz ~traces:200 ~gen:(gen_trace rng mode) () with
      | None -> ()
      | Some (i, tr, f) ->
          Alcotest.failf "trace %d failed at %s:@.%s" i (failure_str f)
            (Trace.to_string tr))

let test_run_trace_deterministic () =
  let rng = Sim.Rng.make 0xdada in
  for i = 0 to 19 do
    let tr = gen_trace rng Trace.Shared i in
    let a = Fuzz.run_trace tr and b = Fuzz.run_trace tr in
    check_string "same trace, same outcome" (outcome_str a) (outcome_str b)
  done

let test_wire_transport_traces () =
  (* The same traces must pass with every message serialized through
     the binary codec on every hop — and produce the same verdict as
     the inproc run, since the wire transport never alters the
     schedule. A decode failure would surface as a Final failure. *)
  let rng = Sim.Rng.make 0xdada in
  for i = 0 to 19 do
    let tr = gen_trace rng Trace.Shared i in
    let inproc = Fuzz.run_trace { tr with Trace.transport = Trace.Inproc } in
    let wire = Fuzz.run_trace { tr with Trace.transport = Trace.Wire } in
    check_string "wire verdict = inproc verdict" (outcome_str inproc)
      (outcome_str wire)
  done

(* --- Differential axes ----------------------------------------------------------- *)

(* Every axis of [Fuzz.axes] has fixed traces in [Axis_traces], and
   the table names no other axis: the suites that own the axes run
   them. *)
let test_axes_have_traces () =
  let names = List.map (fun (a : Fuzz.axis) -> a.name) Fuzz.axes in
  Alcotest.(check (list string))
    "one batch list per axis" (List.sort compare names)
    (List.sort compare (List.map fst Axis_traces.batches));
  List.iter
    (fun name ->
      check_bool (name ^ " has batches") true
        (List.assoc name Axis_traces.batches <> []))
    names

(* --- The planted cover-sweep bug ------------------------------------------------ *)

let planted = { Drtree.Config.default with Drtree.Config.cover_sweep = false }

let find_planted_failure () =
  let rng = Sim.Rng.make 0xb0b in
  let gen _ =
    Fuzz.random_trace rng ~nodes:8 ~ops:8 ~mode:Trace.Shared
      ~sched:Schedule.Fifo ~config:planted ()
  in
  match Fuzz.fuzz ~traces:200 ~gen () with
  | None ->
      Alcotest.fail "planted cover-sweep bug not detected within 200 traces"
  | Some (_, tr, f) -> (tr, f)

let test_planted_bug_detect_shrink_replay () =
  let tr, _ = find_planted_failure () in
  let small, f = Shrink.shrink tr in
  check_bool "shrunk dynamic part has at most 5 ops" true
    (List.length small.Trace.ops <= 5);
  check_bool "shrinking never grows the trace" true
    (List.length small.Trace.prelude + List.length small.Trace.ops
    <= List.length tr.Trace.prelude + List.length tr.Trace.ops);
  (* Serialize, reload, re-run: the same failure must reproduce. *)
  let file = Filename.temp_file "drtree-mck" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.save file small;
      match Trace.load file with
      | Error e -> Alcotest.fail e
      | Ok reloaded -> (
          check_string "codec round-trips the counterexample"
            (Trace.to_string small)
            (Trace.to_string reloaded);
          match Fuzz.run_trace reloaded with
          | Fuzz.Failed f' ->
              check_string "replay reproduces the same failure"
                (failure_str f) (failure_str f')
          | Fuzz.Passed -> Alcotest.fail "replay did not reproduce"));
  (* Control: the identical scenario with the sweep enabled is fine —
     the failure really is the planted bug, not the scenario. *)
  let config = { small.Trace.config with Drtree.Config.cover_sweep = true } in
  match Fuzz.run_trace { small with Trace.config } with
  | Fuzz.Passed -> ()
  | Fuzz.Failed f ->
      Alcotest.failf "control run (sweep enabled) failed: %s" (failure_str f)

let test_planted_bug_in_mp_mode () =
  let rng = Sim.Rng.make 0xcafe in
  let gen _ =
    Fuzz.random_trace rng ~nodes:8 ~ops:8 ~mode:Trace.Message_passing
      ~sched:Schedule.Fifo ~config:planted ()
  in
  match Fuzz.fuzz ~traces:200 ~gen () with
  | None ->
      Alcotest.fail "planted bug not detected in message-passing mode"
  | Some _ -> ()

(* --- Trace codec ---------------------------------------------------------------- *)

let exemplar =
  {
    Trace.seed = 77;
    mode = Trace.Message_passing;
    transport = Trace.Wire;
    sched = Schedule.Delay_checks;
    drop = 0.125;
    dup = 0.0625;
    config =
      (* Floats with more than 6 significant digits: %g would round
         them. *)
      Drtree.Config.make ~max_fill:5 ~cover_sweep:false
        ~scheduler:Drtree.Config.Incremental ~scan_fraction:0.0123456789
        ~layout:Drtree.Config.Hashed
        ~detector:
          (Drtree.Config.Heartbeat
             { period = 0.1234567; timeout_factor = 4; fallbacks = 1 })
        ~forest:(Drtree.Config.Sharded { shards = 3 })
        ();
    prelude = [ rect 1.5 2.25 8.75 9.125; rect 0.1 0.2 0.3 0.4 ];
    ops =
      [
        Trace.Join (rect 10.0 20.0 30.0 40.0);
        Trace.Leave 3;
        Trace.Crash 0;
        Trace.Corrupt (2, 991);
        Trace.Publish (P.make2 55.5 66.25);
        Trace.Agg_query (Drtree.Message.Sum, rect 10.0 10.0 60.0 60.0);
        Trace.Stabilize 2;
      ];
  }

let test_codec_round_trip () =
  match Trace.of_string (Trace.to_string exemplar) with
  | Ok t -> check_bool "all fields, floats and ops survive" true (t = exemplar)
  | Error e -> Alcotest.fail e

let test_codec_float_exactness () =
  (* %.17g must round-trip awkward floats exactly. *)
  let r = rect 0.1 (1.0 /. 3.0) (Float.pi) 97.000000000000014 in
  let t = { Trace.default with Trace.prelude = [ r ] } in
  match Trace.of_string (Trace.to_string t) with
  | Ok t' -> check_bool "bit-exact rectangle" true
      (R.equal r (List.hd t'.Trace.prelude))
  | Error e -> Alcotest.fail e

let test_codec_rejects_garbage () =
  check_bool "bad header" true
    (Result.is_error (Trace.of_string "not a trace\nseed 1\nend\n"));
  check_bool "v1 header" true
    (Result.is_error (Trace.of_string "drtree-trace v1\nseed 1\nend\n"));
  check_bool "bad op" true
    (Result.is_error
       (Trace.of_string "drtree-trace v2\nop warp 1 2 3\nend\n"));
  check_bool "bad float" true
    (Result.is_error (Trace.of_string "drtree-trace v2\ndrop zeal\nend\n"));
  check_bool "bad config" true
    (Result.is_error
       (Trace.of_string "drtree-trace v2\nconfig layout=bogus\nend\n"));
  check_bool "bad aggregate function" true
    (Result.is_error
       (Trace.of_string "drtree-trace v2\nop agg zeal 0 0 1 1\nend\n"))

let test_codec_save_load () =
  let file = Filename.temp_file "drtree-mck" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.save file exemplar;
      match Trace.load file with
      | Ok t ->
          check_string "file round-trip"
            (Trace.to_string exemplar) (Trace.to_string t)
      | Error e -> Alcotest.fail e)

(* --- Shrinker ------------------------------------------------------------------- *)

let test_shrink_requires_failure () =
  let passing = { Trace.default with Trace.prelude = [ rect 0.0 0.0 5.0 5.0 ] } in
  check_bool "refuses a passing trace" true
    (match Shrink.shrink passing with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_shrink_result_still_fails () =
  let tr, _ = find_planted_failure () in
  let small, _ = Shrink.shrink tr in
  match Fuzz.run_trace small with
  | Fuzz.Failed _ -> ()
  | Fuzz.Passed -> Alcotest.fail "shrunk trace must still fail"

let () =
  Alcotest.run "mck"
    [
      ( "schedules",
        [
          Alcotest.test_case "fifo = engine order" `Quick
            test_fifo_matches_no_scheduler;
          Alcotest.test_case "random reordering stabilizes" `Quick
            test_random_schedule_still_stabilizes;
          Alcotest.test_case "delay-checks stabilizes" `Quick
            test_delay_checks_still_stabilizes;
          Alcotest.test_case "round-robin stabilizes" `Quick
            test_round_robin_still_stabilizes;
          Alcotest.test_case "loss/duplication counters" `Quick
            test_fault_counters;
          Alcotest.test_case "duplication budget" `Quick
            test_duplication_budget;
          Alcotest.test_case "kind <-> string" `Quick test_kind_strings;
        ] );
      ( "fuzz",
        [
          fuzz_mode "200 traces, shared-state mode" Trace.Shared;
          fuzz_mode "200 traces, message-passing mode" Trace.Message_passing;
          Alcotest.test_case "run_trace is deterministic" `Quick
            test_run_trace_deterministic;
          Alcotest.test_case "wire transport, same verdicts" `Quick
            test_wire_transport_traces;
        ] );
      ( "differential",
        [
          Alcotest.test_case "every axis has fixed traces" `Quick
            test_axes_have_traces;
        ] );
      ( "planted-bug",
        [
          Alcotest.test_case "detect, shrink to <= 5 ops, replay" `Slow
            test_planted_bug_detect_shrink_replay;
          Alcotest.test_case "detected in mp mode too" `Slow
            test_planted_bug_in_mp_mode;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_codec_round_trip;
          Alcotest.test_case "float exactness" `Quick
            test_codec_float_exactness;
          Alcotest.test_case "rejects garbage" `Quick
            test_codec_rejects_garbage;
          Alcotest.test_case "save/load" `Quick test_codec_save_load;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "refuses passing traces" `Quick
            test_shrink_requires_failure;
          Alcotest.test_case "shrunk trace still fails" `Slow
            test_shrink_result_still_fails;
        ] );
    ]
