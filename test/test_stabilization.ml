(* Tests for the self-stabilization machinery (Figs. 9-14,
   Lemmas 3.3-3.6): controlled/uncontrolled departures, recovery from
   every class of memory corruption, and the quiescence test that
   decides when [stabilize] stops. *)

module R = Geometry.Rect
module O = Drtree.Overlay
module St = Drtree.State
module Inv = Drtree.Invariant
module Cfg = Drtree.Config
module Corrupt = Drtree.Corrupt

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rect x0 y0 x1 y1 = R.make2 ~x0 ~y0 ~x1 ~y1

let legal ov =
  match Inv.check ov with
  | [] -> true
  | vs ->
      List.iter (fun v -> Format.eprintf "violation: %a@." Inv.pp_violation v) vs;
      false

let random_rect rng =
  let x0 = Sim.Rng.range rng 0.0 90.0 and y0 = Sim.Rng.range rng 0.0 90.0 in
  let w = Sim.Rng.range rng 1.0 10.0 and h = Sim.Rng.range rng 1.0 10.0 in
  rect x0 y0 (x0 +. w) (y0 +. h)

let build ?(salt = 131) ~seed n =
  let rng = Sim.Rng.make (seed * salt) in
  let ov = O.create ~seed () in
  for _ = 1 to n do
    ignore (O.join ov (random_rect rng))
  done;
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  ov

let stabilizes ?(max_rounds = 50) ov =
  O.stabilize ~max_rounds ~legal:Inv.is_legal ov <> None

(* --- Idempotence -------------------------------------------------------------- *)

let test_stabilize_idempotent () =
  let ov = build ~seed:1 64 in
  check_bool "already legal" true (legal ov);
  (match O.stabilize ~legal:Inv.is_legal ov with
  | Some rounds -> check_int "0 rounds on legal state" 0 rounds
  | None -> Alcotest.fail "must stabilize");
  (* An extra round must not break anything (closure). *)
  O.stabilize_round ov;
  check_bool "still legal after a gratuitous round" true (legal ov)

(* --- Controlled departures (Fig. 9, Lemma 3.4) --------------------------------- *)

let test_leave_leaf () =
  let ov = build ~seed:2 40 in
  let victim =
    (* pick a pure leaf (top = 0) that is not the root *)
    List.find
      (fun id ->
        match O.state ov id with Some s -> St.top s = 0 | None -> false)
      (O.alive_ids ov)
  in
  O.leave ov victim;
  check_int "size dropped" 39 (O.size ov);
  check_bool "stabilizes" true (stabilizes ov);
  check_bool "victim gone" true (not (O.is_alive ov victim))

let test_leave_interior () =
  let ov = build ~seed:3 60 in
  let victim =
    List.find
      (fun id ->
        match O.state ov id with
        | Some s -> St.top s >= 1 && O.designated_root ov <> Some id
        | None -> false)
      (O.alive_ids ov)
  in
  O.leave ov victim;
  check_bool "stabilizes after interior leave" true (stabilizes ov);
  check_bool "legal" true (legal ov)

let test_leave_root () =
  let ov = build ~seed:4 50 in
  let root = Option.get (O.designated_root ov) in
  O.leave ov root;
  check_int "size dropped" 49 (O.size ov);
  check_bool "stabilizes after root leave" true (stabilizes ov);
  check_bool "new root exists" true (O.designated_root ov <> None);
  check_bool "new root differs" true (O.designated_root ov <> Some root)

let test_leave_many () =
  let ov = build ~seed:5 80 in
  let ids = O.alive_ids ov in
  List.iteri (fun i id -> if i mod 3 = 0 then O.leave ov id) ids;
  check_bool "stabilizes after mass leave" true (stabilizes ov);
  check_bool "legal" true (legal ov)

let test_leave_until_singleton () =
  let ov = build ~seed:6 10 in
  let rec drain () =
    if O.size ov > 1 then begin
      let id = List.hd (O.alive_ids ov) in
      O.leave ov id;
      ignore (O.stabilize ~legal:Inv.is_legal ov);
      drain ()
    end
  in
  drain ();
  check_int "one left" 1 (O.size ov);
  check_bool "legal singleton" true (legal ov);
  check_int "height 0" 0 (O.height ov)

(* --- Uncontrolled departures (Lemma 3.5) ---------------------------------------- *)

let test_crash_leaf () =
  let ov = build ~seed:7 40 in
  let victim =
    List.find
      (fun id ->
        match O.state ov id with Some s -> St.top s = 0 | None -> false)
      (O.alive_ids ov)
  in
  O.crash ov victim;
  check_bool "stabilizes" true (stabilizes ov);
  check_bool "legal" true (legal ov)

let test_crash_interior () =
  let ov = build ~seed:8 60 in
  let victim =
    List.find
      (fun id ->
        match O.state ov id with
        | Some s -> St.top s >= 1 && O.designated_root ov <> Some id
        | None -> false)
      (O.alive_ids ov)
  in
  O.crash ov victim;
  check_bool "stabilizes after interior crash" true (stabilizes ov);
  check_bool "legal" true (legal ov)

let test_crash_root () =
  let ov = build ~seed:9 50 in
  let root = Option.get (O.designated_root ov) in
  O.crash ov root;
  check_bool "stabilizes after root crash" true (stabilizes ov);
  check_bool "new root" true (O.designated_root ov <> None && O.designated_root ov <> Some root)

let test_crash_quarter () =
  let ov = build ~seed:10 100 in
  let rng = Sim.Rng.make 1000 in
  let victims = Corrupt.random_victims ov rng ~fraction:0.25 in
  List.iter (fun v -> O.crash ov v) victims;
  check_bool "stabilizes after 25% crash" true (stabilizes ov);
  check_bool "legal" true (legal ov);
  check_int "size" 75 (O.size ov)

let test_crash_simultaneous_root_and_children () =
  (* Kill the root and every member of its top-level children set at
     once: the survivors must re-form a tree. *)
  let ov = build ~seed:11 60 in
  let root = Option.get (O.designated_root ov) in
  let top_children =
    match O.state ov root with
    | Some s -> (St.level_exn s (St.top s)).St.children
    | None -> Sim.Node_id.Set.empty
  in
  Sim.Node_id.Set.iter (fun id -> O.crash ov id) top_children;
  O.crash ov root;
  check_bool "stabilizes" true (stabilizes ov);
  check_bool "legal" true (legal ov)

(* --- Memory corruption (Lemma 3.6) ----------------------------------------------- *)

let corruption_case name corrupt_fn =
  Alcotest.test_case name `Quick (fun () ->
      let ov = build ~seed:12 60 in
      let rng = Sim.Rng.make 555 in
      let victims = Corrupt.random_victims ov rng ~fraction:0.15 in
      List.iter (fun v -> ignore (corrupt_fn ov rng v)) victims;
      check_bool (name ^ " recovers") true (stabilizes ov);
      check_bool "legal" true (legal ov))

let test_corrupt_everything () =
  let ov = build ~seed:13 80 in
  let rng = Sim.Rng.make 777 in
  (* Corrupt every process at once. *)
  List.iter (fun v -> ignore (Corrupt.any ov rng v)) (O.alive_ids ov);
  check_bool "full corruption recovers" true (stabilizes ~max_rounds:100 ov);
  check_bool "legal" true (legal ov)

let test_corrupt_and_crash_interleaved () =
  let ov = build ~seed:14 80 in
  let rng = Sim.Rng.make 888 in
  for round = 1 to 3 do
    let victims = Corrupt.random_victims ov rng ~fraction:0.1 in
    List.iteri
      (fun i v ->
        if i mod 2 = 0 then ignore (Corrupt.any ov rng v) else O.crash ov v)
      victims;
    check_bool
      (Printf.sprintf "round %d recovers" round)
      true (stabilizes ~max_rounds:100 ov)
  done;
  check_bool "legal at the end" true (legal ov)

let test_recovery_preserves_membership () =
  (* Stabilization must not lose live subscribers. *)
  let ov = build ~seed:15 50 in
  let rng = Sim.Rng.make 999 in
  let before = O.alive_ids ov in
  List.iter (fun v -> ignore (Corrupt.parent ov rng v))
    (Corrupt.random_victims ov rng ~fraction:0.3);
  check_bool "stabilizes" true (stabilizes ov);
  check_bool "same membership" true (O.alive_ids ov = before)

(* --- White-box: each CHECK_* module repairs its own variable class
   (Figs. 10-13), driven through the protocol messages. ---------------------------- *)

let inject ov id msg =
  Sim.Engine.inject (O.engine ov) ~dst:id msg;
  O.run ov

let test_check_mbr_repairs_leaf () =
  let ov = build ~seed:20 30 in
  let id = List.hd (O.alive_ids ov) in
  let s = Option.get (O.state ov id) in
  let l0 = St.level_exn s 0 in
  l0.St.mbr <- rect (-50.0) (-50.0) (-40.0) (-40.0);
  check_bool "corrupted" true
    (not (Geometry.Rect.equal l0.St.mbr (St.filter s)));
  inject ov id (Drtree.Message.Check_mbr 0);
  check_bool "leaf MBR restored to the filter" true
    (Geometry.Rect.equal (St.level_exn s 0).St.mbr (St.filter s))

let test_check_mbr_repairs_interior () =
  let ov = build ~seed:21 60 in
  let id =
    List.find
      (fun id ->
        match O.state ov id with Some s -> St.top s >= 1 | None -> false)
      (O.alive_ids ov)
  in
  let s = Option.get (O.state ov id) in
  let l1 = St.level_exn s 1 in
  let good = l1.St.mbr in
  l1.St.mbr <- rect 0.0 0.0 1.0 1.0;
  inject ov id (Drtree.Message.Check_mbr 1);
  check_bool "interior MBR recomputed from members" true
    (Geometry.Rect.equal (St.level_exn s 1).St.mbr good)

let test_check_children_evicts_stranger () =
  let ov = build ~seed:22 60 in
  let id =
    List.find
      (fun id ->
        match O.state ov id with Some s -> St.top s >= 1 | None -> false)
      (O.alive_ids ov)
  in
  let s = Option.get (O.state ov id) in
  let l1 = St.level_exn s 1 in
  (* A stranger (some process that has another parent) plus a ghost
     (never-spawned id). *)
  let stranger =
    List.find
      (fun other ->
        other <> id
        && not (Sim.Node_id.Set.mem other l1.St.children)
        &&
        match O.state ov other with
        | Some so -> (St.level_exn so (St.top so)).St.parent <> id
        | None -> false)
      (O.alive_ids ov)
  in
  l1.St.children <- Sim.Node_id.Set.add 424242 (Sim.Node_id.Set.add stranger l1.St.children);
  inject ov id (Drtree.Message.Check_children 1);
  let l1 = St.level_exn s 1 in
  check_bool "stranger evicted" true
    (not (Sim.Node_id.Set.mem stranger l1.St.children));
  check_bool "ghost evicted" true
    (not (Sim.Node_id.Set.mem 424242 l1.St.children));
  check_bool "self restored" true (Sim.Node_id.Set.mem id l1.St.children)

let test_check_children_fixes_underloaded_flag () =
  let ov = build ~seed:23 40 in
  let id =
    List.find
      (fun id ->
        match O.state ov id with Some s -> St.top s >= 1 | None -> false)
      (O.alive_ids ov)
  in
  let s = Option.get (O.state ov id) in
  let l1 = St.level_exn s 1 in
  let correct = l1.St.underloaded in
  l1.St.underloaded <- not correct;
  inject ov id (Drtree.Message.Check_children 1);
  check_bool "flag restored" true ((St.level_exn s 1).St.underloaded = correct)

let test_check_parent_triggers_rejoin () =
  let ov = build ~seed:24 50 in
  (* Pick a non-root top instance and point its parent at a ghost. *)
  let id =
    List.find
      (fun id -> O.designated_root ov <> Some id)
      (O.alive_ids ov)
  in
  let s = Option.get (O.state ov id) in
  let top = St.top s in
  (St.level_exn s top).St.parent <- 424242;
  inject ov id (Drtree.Message.Check_parent top);
  (* The node must have re-attached (directly or as a pending join
     that the next round completes). *)
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  check_bool "re-attached and legal" true (legal ov);
  check_bool "still a member" true (O.is_alive ov id)

let test_check_cover_swaps_roles () =
  (* Hand-build the inversion: a parent whose member covers more. *)
  let ov = O.create ~seed:25 () in
  let small = O.join ov (rect 40.0 40.0 45.0 45.0) in
  let big = O.join ov (rect 0.0 0.0 100.0 100.0) in
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  (* big must be the interior node; force the inversion manually. *)
  let sb = Option.get (O.state ov big) in
  let ss = Option.get (O.state ov small) in
  check_int "big is interior" 1 (St.top sb);
  (* Swap roles by hand to create the illegal state: small becomes the
     holder. *)
  let l1 = St.level_exn sb 1 in
  let children = l1.St.children in
  let lsmall = St.activate ss 1 in
  lsmall.St.children <- children;
  lsmall.St.parent <- small;
  lsmall.St.mbr <- l1.St.mbr;
  St.deactivate_above sb 0;
  (St.level_exn sb 0).St.parent <- small;
  (St.level_exn ss 0).St.parent <- small;
  check_bool "inversion in place" true (not (legal ov));
  inject ov small (Drtree.Message.Check_cover 1);
  check_bool "roles swapped back" true (legal ov);
  check_bool "big holds the interior again" true
    (St.top (Option.get (O.state ov big)) = 1)

(* --- Message-passing stabilization mode -------------------------------------------- *)

let stabilizes_mp ?(max_rounds = 80) ov =
  O.stabilize_mp ~max_rounds ~legal:Inv.is_legal ov <> None

let test_mp_idempotent () =
  let ov = build ~seed:60 50 in
  (match O.stabilize_mp ~legal:Inv.is_legal ov with
  | Some rounds -> check_int "0 rounds on legal state" 0 rounds
  | None -> Alcotest.fail "must stabilize");
  O.stabilize_round_mp ov;
  check_bool "closure under a gratuitous mp round" true (legal ov)

let test_mp_crash_recovery () =
  let ov = build ~seed:61 80 in
  let rng = Sim.Rng.make 61 in
  let victims = Corrupt.random_victims ov rng ~fraction:0.2 in
  List.iter (fun v -> O.crash ov v) victims;
  check_bool "mp mode repairs crashes" true (stabilizes_mp ov);
  check_bool "legal" true (legal ov)

let test_mp_corruption_recovery () =
  let ov = build ~seed:62 80 in
  let rng = Sim.Rng.make 62 in
  List.iter (fun v -> ignore (Corrupt.any ov rng v)) (O.alive_ids ov);
  check_bool "mp mode repairs full corruption" true (stabilizes_mp ov);
  check_bool "legal" true (legal ov)

let test_mp_root_crash () =
  let ov = build ~seed:63 60 in
  let root = Option.get (O.designated_root ov) in
  O.crash ov root;
  check_bool "mp mode repairs root crash" true (stabilizes_mp ov);
  check_bool "new root" true (O.designated_root ov <> None && O.designated_root ov <> Some root)

let test_mp_costs_messages () =
  (* The whole point of the mode: detection costs counted messages. *)
  let ov = build ~seed:64 60 in
  Sim.Engine.reset_counters (O.engine ov);
  O.stabilize_round_mp ov;
  let msgs = Sim.Engine.messages_sent (O.engine ov) in
  (* >= 2 messages per neighbor link: queries + reports. *)
  let links = List.length (Drtree.Export.adjacency ov) in
  check_bool
    (Printf.sprintf "round costs %d msgs for %d links" msgs links)
    true
    (msgs >= 2 * links)

let test_mp_accuracy_after_repair () =
  let ov = build ~seed:65 70 in
  let rng = Sim.Rng.make 65 in
  let victims = Corrupt.random_victims ov rng ~fraction:0.25 in
  List.iteri
    (fun i v -> if i mod 2 = 0 then O.crash ov v else ignore (Corrupt.any ov rng v))
    victims;
  check_bool "repairs" true (stabilizes_mp ov);
  let ids = O.alive_ids ov in
  for _ = 1 to 25 do
    let p =
      Geometry.Point.make2 (Sim.Rng.range rng 0.0 100.0)
        (Sim.Rng.range rng 0.0 100.0)
    in
    let rep = O.publish ov ~from:(Sim.Rng.pick rng ids) p in
    check_int "zero FN after mp repair" 0 rep.O.false_negatives
  done

(* --- Stale and hostile messages ----------------------------------------------------
   Handlers must tolerate any message a hostile network can produce:
   dropped, duplicated and reordered protocol traffic mid-flight, and
   messages aimed at nodes that lost the corresponding role. An
   [Invalid_argument] escaping a handler (State.level_exn on an
   inactive height) is always a bug; alcotest turns any exception into
   a failure. *)

let with_schedule ?drop ?dup ~seed kind ov f =
  let strat = Mck.Schedule.make ?drop ?dup ~seed kind in
  Mck.Schedule.install strat (O.engine ov);
  Fun.protect ~finally:(fun () -> Mck.Schedule.uninstall (O.engine ov)) f

let test_join_storm_under_faults () =
  let ov = O.create ~seed:70 () in
  let rng = Sim.Rng.make (70 * 131) in
  with_schedule ~drop:0.15 ~dup:0.1 ~seed:7070 Mck.Schedule.Random ov
    (fun () ->
      (* Queue all joins first, then drain under the hostile schedule:
         JOIN/ADD_CHILD interleave, drop and duplicate mid-protocol. *)
      for _ = 1 to 30 do
        ignore (O.join_async ov (random_rect rng))
      done;
      O.run ov);
  check_bool "stabilizes after faulty join storm" true
    (stabilizes ~max_rounds:150 ov);
  check_bool "legal" true (legal ov)

let test_mp_rounds_under_faults () =
  (* Drop, duplicate and reorder QUERY/REPORT snapshots mid-round: the
     repair modules must act on whatever reports survive without ever
     raising, and later reliable rounds must finish the job. *)
  let ov = build ~seed:71 50 in
  let rng = Sim.Rng.make 71 in
  List.iter
    (fun v -> ignore (Corrupt.any ov rng v))
    (Corrupt.random_victims ov rng ~fraction:0.2);
  with_schedule ~drop:0.2 ~dup:0.1 ~seed:7171 Mck.Schedule.Random ov
    (fun () ->
      for _ = 1 to 5 do
        O.stabilize_round_mp ov
      done);
  check_bool "mp repairs despite faulty rounds" true
    (O.stabilize_mp ~max_rounds:150 ~legal:Inv.is_legal ov <> None);
  check_bool "legal" true (legal ov)

let test_leave_storm_delay_checks () =
  (* Starve the repair modules while a third of the overlay departs:
     LEAVE and the resulting restructuring must still not raise. *)
  let ov = build ~seed:72 45 in
  with_schedule ~dup:0.1 ~seed:7272 Mck.Schedule.Delay_checks ov
    (fun () ->
      List.iteri
        (fun i id -> if i mod 3 = 0 && O.size ov > 2 then O.leave ov id)
        (O.alive_ids ov));
  check_bool "stabilizes after check-starved leave storm" true
    (stabilizes ~max_rounds:150 ov);
  check_bool "legal" true (legal ov)

let test_stale_direct_injections () =
  let ov = build ~seed:73 30 in
  let ids = O.alive_ids ov in
  let leaf =
    List.find
      (fun id ->
        match O.state ov id with Some s -> St.top s = 0 | None -> false)
      ids
  in
  let other = List.find (fun id -> id <> leaf) ids in
  let ghost = 424242 in
  (* Each of these is a legitimate message caught by a recipient that
     lost (or never had) the matching role: far-too-high heights, dead
     or unknown subjects, stale descents. TTL-guarded forwarding must
     absorb them all without an exception. *)
  inject ov leaf
    (Drtree.Message.Add_child
       { child = other; mbr = rect 0.0 0.0 1.0 1.0; height = 7; hops = 0 });
  inject ov leaf (Drtree.Message.Leave { who = ghost; height = 3 });
  inject ov leaf (Drtree.Message.Leave { who = other; height = 9 });
  inject ov leaf (Drtree.Message.Cover_sweep 5);
  inject ov leaf (Drtree.Message.Check_mbr 4);
  inject ov leaf (Drtree.Message.Check_parent 4);
  inject ov leaf (Drtree.Message.Check_children 4);
  inject ov leaf (Drtree.Message.Check_cover 4);
  inject ov leaf (Drtree.Message.Check_structure 4);
  inject ov leaf (Drtree.Message.Initiate_new_connection 3);
  inject ov leaf
    (Drtree.Message.Join
       { joiner = ghost; mbr = rect 2.0 2.0 3.0 3.0; height = 0;
         phase = `Down 6; hops = 0 });
  inject ov leaf
    (Drtree.Message.Publish
       { event_id = O.new_event_id ov; point = Geometry.Point.make2 50.0 50.0;
         at = 9; from_child = None; going_up = false; hops = 0 });
  check_bool "stabilizes after stale injections" true
    (stabilizes ~max_rounds:150 ov);
  check_bool "legal" true (legal ov)

let test_accuracy_after_duplicated_joins () =
  (* Duplicated JOIN/ADD_CHILD must not double-attach anyone in a way
     stabilization cannot undo: after repair, dissemination is exact. *)
  let ov = O.create ~seed:74 () in
  let rng = Sim.Rng.make (74 * 131) in
  with_schedule ~dup:0.25 ~seed:7474 Mck.Schedule.Fifo ov (fun () ->
      for _ = 1 to 25 do
        ignore (O.join ov (random_rect rng))
      done);
  check_bool "stabilizes" true (stabilizes ~max_rounds:150 ov);
  let ids = O.alive_ids ov in
  check_int "every subscriber survived" 25 (List.length ids);
  for _ = 1 to 20 do
    let p =
      Geometry.Point.make2 (Sim.Rng.range rng 0.0 100.0)
        (Sim.Rng.range rng 0.0 100.0)
    in
    let rep = O.publish ov ~from:(Sim.Rng.pick rng ids) p in
    check_int "zero FN after duplicated joins" 0 rep.O.false_negatives
  done

let test_leave_reconnect_under_loss () =
  (* The subtree-reconnection departure rides ordinary lossy links: its
     handover JOINs may be dropped, in which case the stabilization
     modules must finish the repair within the Lemma 3.4/3.6 round
     budget (the fuzzer's 4N + 20 bound). *)
  let ov = O.create ~drop_rate:0.1 ~seed:75 () in
  let rng = Sim.Rng.make (75 * 131) in
  for _ = 1 to 40 do
    ignore (O.join ov (random_rect rng))
  done;
  let bound = (4 * max 4 (O.size ov)) + 20 in
  check_bool "builds to legal under loss" true (stabilizes ~max_rounds:bound ov);
  for _ = 1 to 6 do
    if O.size ov > 4 then begin
      let victim =
        let ids = O.alive_ids ov in
        (* Prefer an interior departer: its subtrees exercise the
           reconnection path. *)
        match
          List.find_opt
            (fun id ->
              match O.state ov id with
              | Some s -> St.top s >= 1 && O.designated_root ov <> Some id
              | None -> false)
            ids
        with
        | Some id -> id
        | None -> List.hd ids
      in
      O.leave_reconnect ov victim;
      check_bool "victim gone" true (not (O.is_alive ov victim));
      check_bool "re-stabilizes within the round bound" true
        (stabilizes ~max_rounds:bound ov)
    end
  done;
  check_bool "legal" true (legal ov);
  (* Everyone who did not depart is still a member. *)
  check_int "membership tracks departures" 34 (O.size ov)

(* --- Churn while stabilizing (E8 machinery) --------------------------------------- *)

let test_churn_trace_replay () =
  let seed = 16 in
  let rng = Sim.Rng.make (seed * 131) in
  let ov = O.create ~seed () in
  for _ = 1 to 50 do
    ignore (O.join ov (random_rect rng))
  done;
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  let churn_rng = Sim.Rng.make 4242 in
  let trace =
    Sim.Churn.trace churn_rng ~join_rate:1.0 ~leave_rate:0.8 ~horizon:40.0
  in
  List.iter
    (fun (_, action) ->
      match action with
      | Sim.Churn.Join -> ignore (O.join ov (random_rect rng))
      | Sim.Churn.Leave -> (
          match O.alive_ids ov with
          | [] -> ()
          | ids ->
              if List.length ids > 2 then
                O.crash ov (Sim.Rng.pick churn_rng ids)))
    trace;
  check_bool "stabilizes after churn storm" true (stabilizes ~max_rounds:100 ov);
  check_bool "legal" true (legal ov)

(* --- Wire transport --------------------------------------------------------------- *)

let test_wire_round_bytes () =
  let seed = 77 in
  let rng = Sim.Rng.make (seed * 131) in
  let ov = O.create ~transport:Drtree.Message.Codec.transport ~seed () in
  for _ = 1 to 32 do
    ignore (O.join ov (random_rect rng))
  done;
  ignore (O.stabilize ~legal:Inv.is_legal ov);
  O.stabilize_round_mp ov;
  let eng = O.engine ov in
  let tele = O.telemetry ov in
  check_bool "frames flowed" true (Sim.Engine.bytes_sent eng > 0);
  check_int "no decode errors" 0 (Sim.Engine.decode_errors eng);
  (* The per-kind traffic table must account for every frame the engine
     framed on send (self-messages bypass the transport on both sides). *)
  let sent_bytes =
    List.fold_left
      (fun acc (_, tr) -> acc + tr.Drtree.Telemetry.sent_bytes)
      0
      (Drtree.Telemetry.traffic_entries tele)
  in
  check_int "traffic sums to engine bytes" (Sim.Engine.bytes_sent eng)
    sent_bytes;
  (match Drtree.Telemetry.last_round tele with
  | None -> Alcotest.fail "round report expected"
  | Some r ->
      check_bool "round bytes recorded" true (r.Drtree.Telemetry.bytes > 0));
  check_bool "legal" true (legal ov)

(* --- Quiescence: what [stabilize] sees between rounds ------------------- *)

(* [stabilize] runs rounds while the last one marked anything, so every
   [Corrupt] primitive (with default [?mark]) must mark: an unmarked
   write on a quiescent tree would cost a legality check to find. *)
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
  QCheck2.Test.make ~name:"every Corrupt primitive marks" ~count:60
    QCheck2.Gen.(pair int (int_range 0 (List.length primitives - 1)))
    (fun (seed, pidx) ->
      let seed = (abs seed mod 1000) + 1 in
      let name, primitive = List.nth primitives pidx in
      let ov = build ~salt:7919 ~seed 24 in
      ignore (O.stabilize ~max_rounds:50 ~legal:Inv.is_legal ov);
      if O.dirty_size ov <> 0 then
        QCheck2.Test.fail_reportf "not quiescent before corruption";
      let rng = Sim.Rng.make (seed * 31 + pidx) in
      let victim = Sim.Rng.pick rng (O.alive_ids ov) in
      if primitive ov rng victim && O.dirty_size ov = 0 then
        QCheck2.Test.fail_reportf "Corrupt.%s marked nothing" name;
      true)

(* Silent corruption ([~mark:false]) leaves a quiescent but illegal
   tree: [stabilize]'s legality check sees it, marks everything and
   converges. *)
let test_silent_corruption_escalation () =
  let ov = build ~salt:7919 ~seed:5 32 in
  ignore (O.stabilize ~max_rounds:50 ~legal:Inv.is_legal ov);
  let rng = Sim.Rng.make 55 in
  let applied = ref 0 in
  List.iteri
    (fun i v ->
      if i mod 8 = 0 && Corrupt.any ~mark:false ov rng v then incr applied)
    (O.alive_ids ov);
  check_bool "some corruption applied" true (!applied > 0);
  check_int "nothing marked" 0 (O.dirty_size ov);
  (match O.stabilize ~max_rounds:50 ~legal:Inv.is_legal ov with
  | Some _ -> ()
  | None -> Alcotest.fail "stabilize did not converge after escalation");
  check_bool "legal after escalation" true (legal ov)

let () =
  Alcotest.run "stabilization"
    [
      ( "idempotence",
        [ Alcotest.test_case "stabilize on legal state" `Quick
            test_stabilize_idempotent ] );
      ( "controlled-leave",
        [
          Alcotest.test_case "leaf leaves" `Quick test_leave_leaf;
          Alcotest.test_case "interior leaves" `Quick test_leave_interior;
          Alcotest.test_case "root leaves" `Quick test_leave_root;
          Alcotest.test_case "a third leave" `Slow test_leave_many;
          Alcotest.test_case "drain to singleton" `Quick
            test_leave_until_singleton;
        ] );
      ( "crash",
        [
          Alcotest.test_case "leaf crash" `Quick test_crash_leaf;
          Alcotest.test_case "interior crash" `Quick test_crash_interior;
          Alcotest.test_case "root crash" `Quick test_crash_root;
          Alcotest.test_case "25% crash" `Slow test_crash_quarter;
          Alcotest.test_case "root + top children crash" `Quick
            test_crash_simultaneous_root_and_children;
        ] );
      ( "corruption",
        [
          corruption_case "parent corruption" Corrupt.parent;
          corruption_case "children corruption" Corrupt.children;
          corruption_case "mbr corruption" Corrupt.mbr;
          corruption_case "underloaded corruption" Corrupt.underloaded;
          Alcotest.test_case "everything corrupted" `Slow test_corrupt_everything;
          Alcotest.test_case "corrupt+crash interleaved" `Slow
            test_corrupt_and_crash_interleaved;
          Alcotest.test_case "membership preserved" `Quick
            test_recovery_preserves_membership;
        ] );
      ( "white-box-modules",
        [
          Alcotest.test_case "CHECK_MBR repairs a leaf" `Quick
            test_check_mbr_repairs_leaf;
          Alcotest.test_case "CHECK_MBR repairs an interior" `Quick
            test_check_mbr_repairs_interior;
          Alcotest.test_case "CHECK_CHILDREN evicts strangers" `Quick
            test_check_children_evicts_stranger;
          Alcotest.test_case "CHECK_CHILDREN fixes the flag" `Quick
            test_check_children_fixes_underloaded_flag;
          Alcotest.test_case "CHECK_PARENT triggers a re-join" `Quick
            test_check_parent_triggers_rejoin;
          Alcotest.test_case "CHECK_COVER swaps roles" `Quick
            test_check_cover_swaps_roles;
        ] );
      ( "message-passing-mode",
        [
          Alcotest.test_case "idempotent" `Quick test_mp_idempotent;
          Alcotest.test_case "crash recovery" `Quick test_mp_crash_recovery;
          Alcotest.test_case "full corruption" `Slow
            test_mp_corruption_recovery;
          Alcotest.test_case "root crash" `Quick test_mp_root_crash;
          Alcotest.test_case "detection costs messages" `Quick
            test_mp_costs_messages;
          Alcotest.test_case "accuracy after repair" `Quick
            test_mp_accuracy_after_repair;
        ] );
      ( "stale-messages",
        [
          Alcotest.test_case "join storm under drop+dup" `Quick
            test_join_storm_under_faults;
          Alcotest.test_case "mp rounds under drop+dup" `Quick
            test_mp_rounds_under_faults;
          Alcotest.test_case "leave storm under delay-checks" `Quick
            test_leave_storm_delay_checks;
          Alcotest.test_case "stale direct injections" `Quick
            test_stale_direct_injections;
          Alcotest.test_case "accuracy after duplicated joins" `Quick
            test_accuracy_after_duplicated_joins;
          Alcotest.test_case "leave_reconnect under message loss" `Quick
            test_leave_reconnect_under_loss;
        ] );
      ( "churn",
        [ Alcotest.test_case "poisson churn replay" `Slow
            test_churn_trace_replay ] );
      ( "wire-transport",
        [ Alcotest.test_case "round bytes + per-kind traffic" `Quick
            test_wire_round_bytes ] );
      ( "quiescence",
        [
          QCheck_alcotest.to_alcotest corrupt_marks_dirty;
          Alcotest.test_case "silent corruption escalates" `Quick
            test_silent_corruption_escalation;
        ] );
    ]
