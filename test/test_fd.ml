(* lib/fd — heartbeat/timeout failure detection (DESIGN.md §13).

   The suspicion lifecycle under reliable delivery: a crashed neighbor
   is suspected and confirmed within a bounded number of rounds, the
   tree re-converges to a legal state that excludes it, and a live,
   responsive process is never confirmed dead no matter how long the
   run — the detector's verdicts come from silence alone, so at drop 0
   a challenge reply always beats the conviction deadline. Plus an
   acceptance sweep: heartbeat traces through the full mck harness,
   inproc and over the wire, where the fuzz runner itself asserts
   crash-convergence and zero false kills. *)

module R = Geometry.Rect
module O = Drtree.Overlay
module Inv = Drtree.Invariant
module Cfg = Drtree.Config
module Tele = Drtree.Telemetry
module Rng = Sim.Rng
module Trace = Mck.Trace
module Fuzz = Mck.Fuzz

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual
let check_int msg expected actual = Alcotest.(check int) msg expected actual

(* A stabilized heartbeat overlay of [n] random rectangles with the
   detector attached (before any join, like the CLI does). *)
let build ?(period = 1.0) ?(timeout_factor = 3) ?(fallbacks = 2) ~seed n =
  let detector = Cfg.Heartbeat { period; timeout_factor; fallbacks } in
  let cfg = Cfg.make ~detector () in
  let ov = O.create ~cfg ~seed () in
  let rt = Fd.Runtime.attach ov in
  let rng = Rng.make ((seed * 11) + 3) in
  for _ = 1 to n do
    let x0 = Rng.range rng 0.0 90.0 and y0 = Rng.range rng 0.0 90.0 in
    let w = Rng.range rng 1.0 8.0 and h = Rng.range rng 1.0 8.0 in
    ignore (O.join ov (R.make2 ~x0 ~y0 ~x1:(x0 +. w) ~y1:(y0 +. h)))
  done;
  ignore (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov);
  (ov, rt)

(* --- Config plumbing ------------------------------------------------------ *)

let test_attach_rejects_oracle () =
  let ov = O.create ~seed:1 () in
  try
    ignore (Fd.Runtime.attach ov);
    Alcotest.fail "attach under Oracle must be rejected"
  with Invalid_argument _ -> ()

(* --- Crash detection ------------------------------------------------------ *)

(* A silently crashed process is confirmed dead within a handful of
   waves: one wave per stabilization round, suspicion after
   [timeout_factor] silent periods, conviction one period later, plus
   grace slack for the wave in flight when the crash lands. *)
let prop_crash_confirmed =
  QCheck2.Test.make ~name:"silent crash confirmed within timeout bound"
    ~count:25
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 6 18) (int_range 2 4))
    (fun (seed, n, timeout_factor) ->
      let ov, rt = build ~timeout_factor ~seed n in
      let victim =
        match O.alive_ids ov with
        | v :: _ -> v
        | [] -> QCheck2.Test.fail_report "empty overlay"
      in
      O.crash_silent ov victim;
      let budget = timeout_factor + 4 in
      let rounds = ref 0 in
      while (not (Fd.Runtime.is_confirmed rt victim)) && !rounds < budget do
        incr rounds;
        O.stabilize_round ov
      done;
      if not (Fd.Runtime.is_confirmed rt victim) then
        QCheck2.Test.fail_reportf
          "victim %d not confirmed after %d rounds (seed %d, n %d, tf %d)"
          (victim :> int)
          budget seed n timeout_factor;
      (* The eviction feeds the ordinary repair path: the survivors
         re-converge to a legal tree without the victim. *)
      (match O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov with
      | Some _ -> ()
      | None ->
          QCheck2.Test.fail_reportf "no re-convergence after eviction (seed %d)"
            seed);
      let tele = O.telemetry ov in
      if Tele.fd_confirms tele < 1 then
        QCheck2.Test.fail_report "confirmation not recorded in telemetry";
      if Tele.fd_false_kills tele > 0 then
        QCheck2.Test.fail_reportf "%d false kill(s) at drop 0"
          (Tele.fd_false_kills tele);
      (match Tele.fd_mean_detection_latency tele with
      | Some l when l > 0.0 -> ()
      | Some l -> QCheck2.Test.fail_reportf "non-positive latency %g" l
      | None -> QCheck2.Test.fail_report "no detection latency recorded");
      true)

(* Every crashed process is convicted, not just the first: crash a
   third of the overlay at once and drain until all are confirmed. *)
let test_mass_crash_all_confirmed () =
  let ov, rt = build ~seed:42 14 in
  let victims =
    match O.alive_ids ov with
    | a :: b :: c :: d :: _ -> [ a; b; c; d ]
    | _ -> Alcotest.fail "overlay too small"
  in
  List.iter (O.crash_silent ov) victims;
  for _ = 1 to 10 do
    O.stabilize_round ov
  done;
  List.iter
    (fun v ->
      check_bool
        (Printf.sprintf "victim %d confirmed" (v :> int))
        true
        (Fd.Runtime.is_confirmed rt v))
    victims;
  check_bool "legal without the victims" true
    (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov <> None);
  check_int "no false kills" 0 (Tele.fd_false_kills (O.telemetry ov))

(* --- No false convictions under reliable delivery ------------------------- *)

(* Waves keep flowing for many rounds over a quiescent overlay, then
   through join/leave churn: every reply lands within its round's
   drain, so no live process is ever suspected into conviction. *)
let prop_no_false_kills =
  QCheck2.Test.make ~name:"live responsive processes never confirmed at drop 0"
    ~count:25
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 6 16) (int_range 2 3))
    (fun (seed, n, timeout_factor) ->
      let ov, rt = build ~timeout_factor ~seed n in
      let rng = Rng.make ((seed * 17) + 5) in
      for i = 1 to 4 * (timeout_factor + 2) do
        (* Sprinkle churn mid-run: a join and a controlled leave. *)
        if i mod 5 = 0 then begin
          let x0 = Rng.range rng 0.0 90.0 and y0 = Rng.range rng 0.0 90.0 in
          ignore (O.join ov (R.make2 ~x0 ~y0 ~x1:(x0 +. 4.0) ~y1:(y0 +. 4.0)))
        end;
        O.stabilize_round ov
      done;
      let tele = O.telemetry ov in
      if Tele.fd_false_kills tele > 0 then
        QCheck2.Test.fail_reportf "%d false kill(s) at drop 0 (seed %d)"
          (Tele.fd_false_kills tele) seed;
      (* No live process appears in the conviction log. *)
      List.iter
        (fun (id, _) ->
          if O.is_alive ov id then
            QCheck2.Test.fail_reportf "live process %d in confirmed log"
              (id :> int))
        (Fd.Runtime.confirmed rt);
      if Fd.Runtime.wave rt < timeout_factor then
        QCheck2.Test.fail_reportf "only %d wave(s) emitted" (Fd.Runtime.wave rt);
      true)

(* --- The registry watermark --------------------------------------------- *)

(* The fallback ring's registry is caught up from a watermark over the
   spawn range and re-sorted only when membership changed. It must
   equal what a rebuild from the whole membership log gives at every
   wave: the sorted ids that hold a state (alive or crashed) and were
   not convicted when the wave began. Random joins, silent-crash
   bursts and rounds, some under loss so that false kills and lifted
   convictions occur too, on both store layouts, which must also
   agree with each other. *)
let prop_registry_watermark =
  let step =
    QCheck2.Gen.(
      frequency
        [ (3, map (fun k -> `Join k) (int_range 1 3)); (1, pure `Crash);
          (4, pure `Round) ])
  in
  QCheck2.Test.make ~name:"registry = stateful unconvicted ids at every wave"
    ~count:20
    QCheck2.Gen.(
      triple (int_range 0 10_000) (oneofl [ 0.0; 0.15 ])
        (list_size (int_range 10 60) step))
    (fun (seed, drop, steps) ->
      let run layout =
        let detector =
          Cfg.Heartbeat { period = 1.0; timeout_factor = 2; fallbacks = 2 }
        in
        let ov = O.create ~cfg:(Cfg.make ~detector ~layout ()) ~seed () in
        let rt = Fd.Runtime.attach ov in
        Sim.Engine.set_drop_rate (O.engine ov) drop;
        let rng = Rng.make ((seed * 13) + 1) in
        let waves = ref [] in
        List.iter
          (function
            | `Join k ->
                for _ = 1 to k do
                  let x0 = Rng.range rng 0.0 90.0
                  and y0 = Rng.range rng 0.0 90.0 in
                  let r = R.make2 ~x0 ~y0 ~x1:(x0 +. 5.0) ~y1:(y0 +. 5.0) in
                  ignore (O.join ov r)
                done
            | `Crash -> (
                match O.alive_ids ov with
                | [] | [ _ ] -> ()
                | ids ->
                    let v = List.nth ids (Rng.int rng (List.length ids)) in
                    O.crash_silent ov v)
            | `Round ->
                let expected =
                  List.filter
                    (fun id ->
                      O.state ov id <> None
                      && not (Fd.Runtime.is_confirmed rt id))
                    (List.init (Sim.Engine.spawned_count (O.engine ov)) Fun.id)
                in
                let w0 = Fd.Runtime.wave rt in
                O.stabilize_round ov;
                if Fd.Runtime.wave rt > w0 then begin
                  let got = Fd.Runtime.registry rt in
                  if got <> expected then
                    QCheck2.Test.fail_reportf
                      "wave %d: registry [%s] <> expected [%s] (seed %d)"
                      (Fd.Runtime.wave rt)
                      (String.concat ";" (List.map string_of_int got))
                      (String.concat ";" (List.map string_of_int expected))
                      seed;
                  waves := got :: !waves
                end)
          (* a quiet tail, so convictions also land with no join
             after them *)
          (steps @ List.init 8 (fun _ -> `Round));
        (!waves, Tele.fd_confirms (O.telemetry ov))
      in
      let flat = run Cfg.Flat and hashed = run Cfg.Hashed in
      if flat <> hashed then
        QCheck2.Test.fail_reportf "layouts disagree on the registry (seed %d)"
          seed;
      true)

(* --- Oracle bit-identity --------------------------------------------------- *)

(* Under [Config.detector = Oracle] nothing changed: no detector
   message is ever sent, the traffic table has no heartbeat rows. *)
let test_oracle_sends_nothing () =
  let ov = O.create ~seed:7 () in
  let rng = Rng.make 71 in
  for _ = 1 to 12 do
    let x0 = Rng.range rng 0.0 90.0 and y0 = Rng.range rng 0.0 90.0 in
    ignore (O.join ov (R.make2 ~x0 ~y0 ~x1:(x0 +. 5.0) ~y1:(y0 +. 5.0)))
  done;
  ignore (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov);
  let tele = O.telemetry ov in
  check_int "no suspicions" 0 (Tele.fd_suspicions tele);
  check_int "no confirms" 0 (Tele.fd_confirms tele)

(* --- The acceptance sweep: heartbeat traces through the mck harness ------- *)

(* The fuzz runner asserts, for heartbeat traces: every silently
   crashed process is eventually confirmed, and there are no false
   kills under reliable delivery. Four batches of 30 traces, two
   inproc and two over the wire, the last with 5% loss. *)
let heartbeat_sweep ~base ~transport ?(drop = 0.0) () =
  for i = 0 to 29 do
    let rng = Rng.make (base + i) in
    let tr =
      Fuzz.random_trace rng ~transport ~drop
        ~config:(Cfg.make ~detector:Cfg.default_heartbeat ())
        ()
    in
    match Fuzz.run_trace tr with
    | Fuzz.Passed -> ()
    | Fuzz.Failed f ->
        Alcotest.failf "heartbeat trace failed on seed %d: %a@.%a" (base + i)
          Fuzz.pp_failure f Trace.pp tr
  done

let () =
  Alcotest.run "fd"
    [
      ( "config",
        [
          Alcotest.test_case "attach rejects Oracle" `Quick
            test_attach_rejects_oracle;
        ] );
      ( "lifecycle",
        [
          QCheck_alcotest.to_alcotest prop_crash_confirmed;
          Alcotest.test_case "mass crash all confirmed" `Quick
            test_mass_crash_all_confirmed;
          QCheck_alcotest.to_alcotest prop_no_false_kills;
          Alcotest.test_case "oracle sends no detector traffic" `Quick
            test_oracle_sends_nothing;
          QCheck_alcotest.to_alcotest prop_registry_watermark;
        ] );
      ( "traces",
        [
          Alcotest.test_case "30 inproc full-sweep traces" `Quick
            (heartbeat_sweep ~base:61_000 ~transport:Trace.Inproc);
          Alcotest.test_case "30 more inproc traces" `Quick
            (heartbeat_sweep ~base:62_000 ~transport:Trace.Inproc);
          Alcotest.test_case "30 wire full-sweep traces" `Quick
            (heartbeat_sweep ~base:63_000 ~transport:Trace.Wire);
          Alcotest.test_case "30 lossy wire traces" `Quick
            (heartbeat_sweep ~base:64_000 ~transport:Trace.Wire ~drop:0.05);
        ] );
    ]
