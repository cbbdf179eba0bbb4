(* The flat interned state layout (DESIGN.md §11): the intern table's
   slot contract under churn, Hashed-vs-Flat observational equivalence
   of [State] under random activation sequences, the layout key of the
   trace codec's config line, and the mck layout axis over random
   traces — the headline bit-identical guarantee, at test scale (fixed
   traces in axis_traces.ml; `fuzz --differential layout` runs it at
   thousands of traces) — plus the differential harness's failure
   path. *)

module R = Geometry.Rect
module O = Drtree.Overlay
module St = Drtree.State
module Cfg = Drtree.Config
module Intern = Drtree.Intern
module Trace = Mck.Trace
module Fuzz = Mck.Fuzz

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual
let check_int msg expected actual = Alcotest.(check int) msg expected actual

(* --- Intern table: qcheck slot contract ---------------------------------- *)

(* Dense assignment: n distinct interns with no releases occupy exactly
   slots 0..n-1, in first-sight order. *)
let intern_dense =
  QCheck2.Test.make ~name:"intern hands out dense slots in first-sight order"
    ~count:100
    QCheck2.Gen.(list_size (int_range 0 50) (int_range 0 1000))
    (fun ids ->
      let t = Intern.create ~capacity:1 () in
      let expected = ref [] in
      List.iter
        (fun id ->
          let fresh = not (Intern.mem t id) in
          let slot = Intern.intern t id in
          if fresh then begin
            if slot <> Intern.live t - 1 then
              QCheck2.Test.fail_reportf
                "fresh id %d got slot %d, want next dense slot %d" id slot
                (Intern.live t - 1);
            expected := (id, slot) :: !expected
          end)
        ids;
      let distinct = List.length !expected in
      if Intern.live t <> distinct then
        QCheck2.Test.fail_reportf "live %d <> distinct ids %d" (Intern.live t)
          distinct;
      if Intern.capacity t <> distinct then
        QCheck2.Test.fail_reportf "capacity %d <> distinct ids %d"
          (Intern.capacity t) distinct;
      true)

(* The full churn contract, against a model: random intern/release
   sequences must keep (a) live slots stable (an id's slot never moves
   while live), (b) the live map injective (a freed slot is never
   handed out while some live id still maps to it), and (c) both
   directions round-tripping. *)
let intern_churn =
  QCheck2.Test.make
    ~name:"slots stable, never aliased, round-tripping across churn"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 120) (pair bool (int_range 0 40)))
    (fun ops ->
      let t = Intern.create ~capacity:4 () in
      let model = Hashtbl.create 16 (* id -> slot, live entries only *) in
      List.iter
        (fun (is_intern, id) ->
          if is_intern then begin
            let slot = Intern.intern t id in
            (match Hashtbl.find_opt model id with
            | Some old when old <> slot ->
                QCheck2.Test.fail_reportf
                  "live id %d moved from slot %d to %d" id old slot
            | Some _ -> ()
            | None ->
                Hashtbl.iter
                  (fun id' slot' ->
                    if slot' = slot then
                      QCheck2.Test.fail_reportf
                        "slot %d of live id %d aliased to id %d" slot id' id)
                  model;
                Hashtbl.replace model id slot);
            match Intern.resolve t slot with
            | Some id' when id' = id -> ()
            | other ->
                QCheck2.Test.fail_reportf
                  "resolve (intern %d) = %s, want Some %d" id
                  (match other with
                  | None -> "None"
                  | Some i -> Printf.sprintf "Some %d" i)
                  id
          end
          else begin
            Intern.release t id;
            Hashtbl.remove model id;
            if Intern.find t id <> None then
              QCheck2.Test.fail_reportf "released id %d still found" id
          end)
        ops;
      if Intern.live t <> Hashtbl.length model then
        QCheck2.Test.fail_reportf "live %d <> model %d" (Intern.live t)
          (Hashtbl.length model);
      Hashtbl.iter
        (fun id slot ->
          if Intern.find t id <> Some slot then
            QCheck2.Test.fail_reportf "id %d lost its slot %d" id slot;
          if Intern.resolve t slot <> Some id then
            QCheck2.Test.fail_reportf "slot %d lost its id %d" slot id)
        model;
      (* iter agrees with the model and visits in slot order. *)
      let seen = ref [] in
      Intern.iter t (fun id slot -> seen := (id, slot) :: !seen);
      let seen = List.rev !seen in
      if List.length seen <> Hashtbl.length model then
        QCheck2.Test.fail_reportf "iter visited %d, model has %d"
          (List.length seen) (Hashtbl.length model);
      ignore
        (List.fold_left
           (fun prev (_, slot) ->
             if slot <= prev then
               QCheck2.Test.fail_reportf "iter out of slot order at %d" slot;
             slot)
           (-1) seen);
      true)

let test_intern_negative_id () =
  let t = Intern.create () in
  (try
     ignore (Intern.intern t (-1));
     Alcotest.fail "negative id must be rejected"
   with Invalid_argument _ -> ());
  check_bool "find tolerates negative ids" true (Intern.find t (-3) = None);
  check_bool "resolve tolerates wild slots" true (Intern.resolve t 99 = None)

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

let () =
  Alcotest.run "state-layout"
    [
      ( "intern",
        [
          QCheck_alcotest.to_alcotest intern_dense;
          QCheck_alcotest.to_alcotest intern_churn;
          Alcotest.test_case "invalid inputs" `Quick test_intern_negative_id;
        ] );
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
        ] );
    ]
