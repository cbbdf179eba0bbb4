(* The flat state layout (DESIGN.md §11): Hashed-vs-Flat observational
   equivalence of [State] under random activation sequences, store
   lookups outside the spawn range, the layout key of the
   trace codec's config line, and the mck layout axis over random
   traces — the headline bit-identical guarantee, at test scale (fixed
   traces in axis_traces.ml; `fuzz --differential layout` runs it at
   thousands of traces) — plus the differential harness's failure
   path. *)

module R = Geometry.Rect
module O = Drtree.Overlay
module St = Drtree.State
module Cfg = Drtree.Config
module Trace = Mck.Trace
module Fuzz = Mck.Fuzz

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual
let check_int msg expected actual = Alcotest.(check int) msg expected actual

(* --- State: Hashed vs Flat observational equivalence --------------------- *)

(* Drive both layouts through the same random activate/deactivate/write
   sequence; every observation (top, activity, level fields, memory,
   even the printed form) must agree. In particular re-activation must
   see fresh cells under Flat, not stale spares. *)
let state_layout_equivalence =
  QCheck2.Test.make ~name:"Hashed and Flat states are observationally equal"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 0 3) (int_range 0 12)))
    (fun ops ->
      let filter = R.make2 ~x0:1.0 ~y0:2.0 ~x1:3.0 ~y1:4.0 in
      let a = St.create ~layout:Cfg.Hashed ~id:7 ~filter () in
      let b = St.create ~layout:Cfg.Flat ~id:7 ~filter () in
      let apply s (op, h) =
        match op with
        | 0 -> ignore (St.activate s h)
        | 1 -> St.deactivate_above s h
        | 2 -> (
            match St.level s h with
            | Some l ->
                l.St.parent <- h + 100;
                l.St.children <- Sim.Node_id.Set.of_list [ h; h + 1 ]
            | None -> ())
        | _ -> (
            match St.level s h with
            | Some l -> l.St.underloaded <- not l.St.underloaded
            | None -> ())
      in
      List.iter
        (fun op ->
          apply a op;
          apply b op;
          if St.top a <> St.top b then
            QCheck2.Test.fail_reportf "tops differ: %d vs %d" (St.top a)
              (St.top b);
          for h = -1 to St.top a + 2 do
            if St.is_active a h <> St.is_active b h then
              QCheck2.Test.fail_reportf "activity at %d differs" h;
            match (St.level a h, St.level b h) with
            | None, None -> ()
            | Some la, Some lb ->
                if
                  not
                    (Sim.Node_id.Set.equal la.St.children lb.St.children
                    && la.St.parent = lb.St.parent
                    && la.St.underloaded = lb.St.underloaded
                    && R.equal la.St.mbr lb.St.mbr)
                then QCheck2.Test.fail_reportf "level %d differs" h
            | _ -> QCheck2.Test.fail_reportf "presence at %d differs" h
          done;
          if St.memory_words a <> St.memory_words b then
            QCheck2.Test.fail_reportf "memory_words differ";
          if St.is_root a (St.top a) <> St.is_root b (St.top b) then
            QCheck2.Test.fail_reportf "is_root differs";
          let show s = Format.asprintf "%a" St.pp s in
          if show a <> show b then
            QCheck2.Test.fail_reportf "printed forms differ:@.%s@.%s" (show a)
              (show b))
        ops;
      check_bool "layout accessor (hashed)" true (St.layout a = Cfg.Hashed);
      check_bool "layout accessor (flat)" true (St.layout b = Cfg.Flat);
      true)

(* --- The differential harness reports a real divergence -------------------- *)

(* [Fuzz.differential]'s failure path (the layout axis's), reached
   through a probe axis whose second variant appends one prelude join:
   a real divergence, where a layout bug would be one. Exactness holds
   on faulty schedules too, so the probe must catch the join on a
   clean FIFO trace and on a lossy one alike. *)
let test_differential_detects () =
  let rng = Sim.Rng.make 33_000 in
  let extra = Fuzz.random_rect rng in
  let plus_join tr = { tr with Trace.prelude = tr.Trace.prelude @ [ extra ] } in
  let probe =
    { Fuzz.name = "probe"; variants = [ ("base", Fun.id); ("plus-join", plus_join) ] }
  in
  let contains s sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  let clean = Fuzz.random_trace rng ~sched:Mck.Schedule.Fifo () in
  (match Fuzz.differential ~probes:2 probe clean with
  | Ok () -> Alcotest.fail "the differential missed an extra join"
  | Error msg ->
      List.iter
        (fun name ->
          check_bool (Printf.sprintf "error names %s" name) true
            (contains msg name))
        [ "probe"; "base"; "plus-join" ]);
  let lossy = Fuzz.random_trace rng ~drop:0.1 () in
  let passes tr = Fuzz.run_trace ~probes:2 tr = Fuzz.Passed in
  check_bool "lossy base run passes" true (passes lossy);
  check_bool "lossy plus-join run passes" true (passes (plus_join lossy));
  match Fuzz.differential ~probes:2 probe lossy with
  | Ok () -> Alcotest.fail "the differential missed an extra join (lossy)"
  | Error _ -> ()

(* --- Trace codec: the layout in the config line ------------------------- *)

let test_trace_layout_directive () =
  let tr =
    { Trace.default with
      Trace.config = { Cfg.default with Cfg.layout = Cfg.Hashed };
      seed = 5 }
  in
  (match Trace.of_string (Trace.to_string tr) with
  | Ok t ->
      check_bool "layout survives round-trip" true
        (t.Trace.config.Cfg.layout = Cfg.Hashed)
  | Error e -> Alcotest.fail e);
  (* A trace without a config line, or a config line without a layout
     key, parses as Flat. *)
  List.iter
    (fun text ->
      match Trace.of_string text with
      | Ok t ->
          check_bool "missing layout defaults to flat" true
            (t.Trace.config.Cfg.layout = Cfg.Flat)
      | Error e -> Alcotest.fail e)
    [
      "drtree-trace v2\nseed 3\nend\n";
      "drtree-trace v2\nseed 3\nconfig detector=heartbeat\nend\n";
    ];
  match Trace.of_string "drtree-trace v2\nconfig layout=bogus\nend\n" with
  | Ok _ -> Alcotest.fail "bogus layout accepted"
  | Error _ -> ()

(* --- Overlay smoke: both layouts build the same tree --------------------- *)

let test_overlay_layout_agreement () =
  let build layout =
    let cfg = Cfg.make ~layout () in
    let ov = O.create ~cfg ~seed:42 () in
    let rng = Sim.Rng.make 420 in
    for _ = 1 to 48 do
      let x0 = Sim.Rng.range rng 0.0 90.0
      and y0 = Sim.Rng.range rng 0.0 90.0 in
      ignore (O.join ov (R.make2 ~x0 ~y0 ~x1:(x0 +. 5.0) ~y1:(y0 +. 5.0)))
    done;
    ignore (O.stabilize ~max_rounds:100 ~legal:Drtree.Invariant.is_legal ov);
    ov
  in
  let ov_h = build Cfg.Hashed and ov_f = build Cfg.Flat in
  check_int "same size" (O.size ov_h) (O.size ov_f);
  check_int "same height" (O.height ov_h) (O.height ov_f);
  check_bool "both legal" true
    (Drtree.Invariant.is_legal ov_h && Drtree.Invariant.is_legal ov_f);
  let dump ov =
    let b = Buffer.create 256 in
    O.iter_states ov (fun id s ->
        Buffer.add_string b (Format.asprintf "%d:%a\n" id St.pp s));
    Buffer.contents b
  in
  Alcotest.(check string) "identical per-process state" (dump ov_h) (dump ov_f)

(* The flat store indexes an array by process id. A negative id, or one
   past the spawn range (forged messages carry ids up to N+8), must read
   as [None] under both layouts: checked at 256 spawned processes, where
   N+8 lies past the flat array's initial 256 cells, and again after
   four more joins have grown it, when every spawned id must resolve. *)
let test_store_out_of_range () =
  List.iter
    (fun (name, layout) ->
      let ov = O.create ~cfg:(Cfg.make ~layout ()) ~seed:7 () in
      let rng = Sim.Rng.make 70 in
      let join_n k =
        for _ = 1 to k do
          let x0 = Sim.Rng.range rng 0.0 90.0
          and y0 = Sim.Rng.range rng 0.0 90.0 in
          ignore (O.join ov (R.make2 ~x0 ~y0 ~x1:(x0 +. 5.0) ~y1:(y0 +. 5.0)))
        done
      in
      let check_out_of_range () =
        let spawned = Sim.Engine.spawned_count (O.engine ov) in
        check_bool (name ^ ": negative id") true (O.state ov (-1) = None);
        check_bool
          (Printf.sprintf "%s: id %d past the spawn range" name (spawned + 8))
          true
          (O.state ov (spawned + 8) = None)
      in
      join_n 256;
      check_out_of_range ();
      join_n 4;
      check_out_of_range ();
      let spawned = Sim.Engine.spawned_count (O.engine ov) in
      check_int (name ^ ": spawned") 260 spawned;
      for id = 0 to spawned - 1 do
        if O.state ov id = None then Alcotest.failf "%s: id %d lost" name id
      done)
    [ ("hashed", Cfg.Hashed); ("flat", Cfg.Flat) ]

let () =
  Alcotest.run "state-layout"
    [
      ("state", [ QCheck_alcotest.to_alcotest state_layout_equivalence ]);
      ( "differential",
        Axis_traces.test_cases "layout"
          [
            "random traces layout-identical";
            "faulty wire traces layout-identical";
          ]
        @ [
            Alcotest.test_case "probe axis reaches both failure paths" `Quick
              test_differential_detects;
          ] );
      ( "codec",
        [
          Alcotest.test_case "layout directive round-trip and defaults" `Quick
            test_trace_layout_directive;
        ] );
      ( "overlay",
        [
          Alcotest.test_case "both layouts build identical trees" `Quick
            test_overlay_layout_agreement;
          Alcotest.test_case "ids out of range read as None" `Quick
            test_store_out_of_range;
        ] );
    ]
