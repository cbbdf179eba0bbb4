module Node_id = Sim.Node_id
module Engine = Sim.Engine

(* The facade over the decomposed protocol: {!Access} (state access,
   probes, snapshots, root discovery), {!Repair} (the five CHECK_*
   modules over views), {!Membership} (join/leave), {!Dissemination}
   (publish + reorganization), {!Election} (root role management) and
   {!Telemetry} (the metric bus). This module owns the message
   dispatcher, the repair scheduler (full-sweep or dirty-set
   incremental, DESIGN.md §10) and the stabilization round drivers;
   everything else delegates. *)

type t = Access.net

let create = Access.create
let cfg (ov : t) = ov.Access.cfg
let engine (ov : t) = ov.Access.engine
let is_alive = Access.is_alive
let state = Access.state
let alive_ids = Access.alive_ids
let size = Access.size
let iter_states = Access.iter_states
let designated_root = Access.designated_root
let height = Access.height
let shard_count = Access.shard_count
let shard_of = Access.home_of
let shard_roots = Access.shard_roots
let rendezvous (ov : t) = ov.Access.rdv
let telemetry (ov : t) = ov.Access.tele
let access (ov : t) : Access.net = ov
let new_event_id (ov : t) = Telemetry.fresh_event_id ov.Access.tele
let last_join_hops (ov : t) = ov.Access.last_join_hops
let run (ov : t) = ignore (Engine.run ov.Access.engine)

(* Dirty-set introspection (tests, the model checker, the CLI). *)
let mark_dirty (ov : t) id h = Access.mark ov id h
let dirty_size (ov : t) = Dirty.cardinal ov.Access.dirty
let is_dirty (ov : t) id h = Dirty.mem ov.Access.dirty id h

let log_src = Logs.Src.create "drtree" ~doc:"DR-tree overlay protocol"

module Log = (val Logs.src_log log_src : Logs.LOG)

let enable_logging (ov : t) =
  Engine.set_tracer ov.Access.engine (fun time ~src ~dst msg ->
      Log.debug (fun m ->
          m "t=%.1f %s -> %a : %a" time
            (match src with
            | Some s -> Node_id.to_string s
            | None -> "env")
            Node_id.pp dst Message.pp msg))

(* --- Engine handler ----------------------------------------------------- *)

let handle (ov : t) ctx msg =
  let p = Engine.self ctx in
  match state ov p with
  | None -> ()
  | Some sp ->
      Access.as_executor ov p (fun () ->
          match msg with
          | Message.Query { asker } ->
              Engine.send ctx asker
                (Message.Report { snapshot = Access.self_snapshot sp })
          | Message.Report { snapshot } ->
              Access.store_snapshot ov ~asker:p snapshot
          | Message.Join { joiner; mbr; height; phase; hops } ->
              Membership.handle_join ov ctx sp ~joiner ~mbr ~height ~phase
                ~hops
          | Message.Add_child { child; mbr; height; hops } ->
              Membership.handle_add_child ov sp child mbr height hops
          | Message.Leave { who; height } ->
              Membership.handle_leave ov sp ~who ~height
          | Message.Check_mbr h -> Repair.check_mbr (Access.direct ov sp) h
          | Message.Check_parent h ->
              Repair.check_parent (Access.direct ov sp) h
          | Message.Check_children h ->
              Repair.check_children (Access.direct ov sp) h
          | Message.Check_cover h -> Repair.check_cover (Access.direct ov sp) h
          | Message.Check_structure h -> Repair.check_structure ov sp h
          | Message.Cover_sweep h ->
              (* The cover_sweep=false knob plants a known bug (skipping
                 the Lemma 3.2/3.4 repair) for the model-checking
                 harness. *)
              if ov.Access.cfg.Config.cover_sweep then Repair.cover_sweep ov sp h
          | Message.Initiate_new_connection h ->
              Membership.handle_initiate_new_connection ov sp h
          | Message.Publish { event_id; point; at; from_child; going_up; hops }
            ->
              Dissemination.handle_publish ov ctx sp ~event_id ~point ~at
                ~from_child ~going_up ~hops
          | Message.Agg_subscribe _ | Message.Agg_partial _
          | Message.Agg_result _ | Message.Agg_merge _ -> (
              (* Aggregation is an optional subsystem layered on top of
                 the overlay (lib/agg); without a runtime attached its
                 messages are inert. *)
              match ov.Access.agg_handler with
              | Some h -> h ctx sp msg
              | None -> ())
          | Message.Heartbeat _ | Message.Suspect _ -> (
              (* Failure detection is likewise optional (lib/fd,
                 Config.detector = Heartbeat); under the oracle model
                 its messages are inert. *)
              match ov.Access.fd_handler with
              | Some h -> h ctx sp msg
              | None -> ()))

(* --- Membership drivers -------------------------------------------------- *)

let join_async (ov : t) filter =
  let id = Engine.spawn ov.Access.engine (fun ctx msg -> handle ov ctx msg) in
  let s =
    State.create ~seen_capacity:ov.Access.cfg.Config.seen_capacity
      ~layout:ov.Access.cfg.Config.layout ~id ~filter ()
  in
  Access.add_state ov s;
  Access.mark ov id 0;
  (match Access.oracle ov ~shard:(Access.home_of ov id) ~exclude:id with
  | None -> () (* first subscriber of its shard: it is that tree's root *)
  | Some contact ->
      Engine.inject ov.Access.engine ~dst:contact
        (Message.Join
           { joiner = id; mbr = filter; height = 0; phase = `Up; hops = 0 }));
  id

let join ov filter =
  let id = join_async ov filter in
  run ov;
  id

(* A departing process cannot be relied on to repair anything; the
   hole it leaves is detected by its neighbors' guards. Flag the
   external parent of every instance (its children set keeps a dead
   member) and the members of every interior instance (their parent
   pointer dangles) — the failure-detector side of the dirty tracking
   (DESIGN.md §10). *)
let mark_departure (ov : t) id =
  match Access.state ov id with
  | None -> ()
  | Some s ->
      for h = 0 to State.top s do
        match State.level s h with
        | None -> ()
        | Some l ->
            if not (Node_id.equal l.State.parent id) then
              Access.mark ov l.State.parent (h + 1);
            if h >= 1 then
              Node_id.Set.iter
                (fun c ->
                  if not (Node_id.equal c id) then Access.mark ov c (h - 1))
                l.State.children
      done

(* The one departure path: every exit flavor — voluntary leaves, known
   crashes, and the failure detector's confirmed-dead verdicts — ends
   here, so detector-driven departures are literally the oracle's code
   path minus the external marking. [mark = false] models a silent
   crash: nobody is told, the dirty set stays untouched, and only
   detection (lib/fd under Heartbeat, or the background scan lane) can
   surface the hole. *)
let depart ?(mark = true) (ov : t) id =
  if mark then mark_departure ov id;
  Engine.kill ov.Access.engine id;
  Access.refresh_claimant ov id

let leave (ov : t) id =
  Membership.leave_notify ov id;
  depart ov id;
  run ov

let leave_reconnect (ov : t) id =
  Membership.leave_handover ov id;
  depart ov id;
  run ov

let crash (ov : t) id = depart ov id
let crash_silent (ov : t) id = depart ~mark:false ov id

(* --- Publication --------------------------------------------------------- *)

type publish_report = Dissemination.report = {
  event_id : int;
  matched : Node_id.Set.t;
  delivered : Node_id.Set.t;
  received : Node_id.Set.t;
  false_positives : int;
  false_negatives : int;
  messages : int;
  max_hops : int;
}

let publish (ov : t) ~from point =
  Dissemination.publish ov ~run:(fun () -> run ov) ~from point

(* --- Repair scheduling (DESIGN.md §10) ----------------------------------- *)

let each (ov : t) f =
  List.iter
    (fun id ->
      match Access.read ov id with
      | Some s -> Access.as_executor ov id (fun () -> f s)
      | None -> ())
    (alive_ids ov)

let each_entries (ov : t) entries f =
  List.iter
    (fun (id, hs) ->
      match Access.read ov id with
      | Some s -> Access.as_executor ov id (fun () -> f s hs)
      | None -> ())
    entries

(* What one round will repair: everything (the paper's periodic
   model), or the drained dirty entries grouped per process. *)
type plan = Full | Entries of (Node_id.t * int list) list

(* Full rounds re-derive the claimant cache from scratch and may
   discard the dirty set — they repair everything regardless, so cache
   or queue staleness never outlives one round. Incremental rounds
   drain the queue and append the background scan lane:
   ceil(scan_fraction * N) live processes in round-robin id order
   (at least one), swept at every height. Lane entries go straight
   into the plan, not through {!Dirty}, so they are handled this
   round. *)
let round_plan (ov : t) =
  let queue_depth = Dirty.cardinal ov.Access.dirty in
  match ov.Access.cfg.Config.scheduler with
  | Config.Full_sweep ->
      Access.rescan_claimants ov;
      Dirty.clear ov.Access.dirty;
      (Full, queue_depth)
  | Config.Incremental ->
      let tbl = Hashtbl.create 64 in
      let add id h =
        let hs = try Hashtbl.find tbl id with Not_found -> [] in
        if not (List.mem h hs) then Hashtbl.replace tbl id (h :: hs)
      in
      List.iter (fun (id, h) -> add id h) (Dirty.drain ov.Access.dirty);
      let ids = Array.of_list (alive_ids ov) in
      let n = Array.length ids in
      if n > 0 then begin
        let lane =
          min n
            (max 1
               (int_of_float
                  (ceil
                     (ov.Access.cfg.Config.scan_fraction *. float_of_int n))))
        in
        for k = 0 to lane - 1 do
          let id = ids.((ov.Access.scan_cursor + k) mod n) in
          match Access.state ov id with
          | Some s ->
              for h = 0 to State.top s do
                add id h
              done
          | None -> ()
        done;
        ov.Access.scan_cursor <- (ov.Access.scan_cursor + lane) mod n
      end;
      let grouped =
        Hashtbl.fold
          (fun id hs acc -> (id, List.sort compare hs) :: acc)
          tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      (Entries grouped, queue_depth)

(* The number of module invocations one full-sweep round would make
   over the current population — the baseline the [skipped] gauge is
   measured against (heights at round start; repairs may shift tops
   mid-round, which only perturbs the gauge, never the schedule). *)
let full_equivalent (ov : t) =
  let total = ref 0 in
  iter_states ov (fun _ s ->
      let top = State.top s in
      (* mbr 0..top, children 1..top, parent 0..top, cover 1..top,
         structure 2..top *)
      total := !total + (top + 1) + top + (top + 1) + top + max 0 (top - 1));
  !total

(* One stabilization round, either mode. Shared-state rounds run the
   module bodies as atomic actions over live neighbor state (reads
   counted as probes); message-passing rounds first QUERY every
   neighbor of every process in the plan and then run the same four
   local bodies over the received REPORTs only. Multi-party
   transactions (cover exchange, compaction, root handover) remain
   atomic locked exchanges in both modes. *)
let round_body (ov : t) ~mode =
  (* The failure detector's tick runs first, so timeout verdicts mark
     the dirty set this round's plan drains — detection-to-repair
     latency is one round, not two. Inert under the oracle detector. *)
  (match ov.Access.fd_round with Some f -> f () | None -> ());
  let plan, queue_depth = round_plan ov in
  let tele = ov.Access.tele in
  let full_equiv =
    match plan with Full -> 0 | Entries _ -> full_equivalent ov
  in
  Telemetry.begin_round tele
    ~messages:(Engine.messages_sent ov.Access.engine)
    ~bytes:(Engine.bytes_sent ov.Access.engine)
    ~queue_depth;
  let execs0 = Telemetry.execs tele in
  (match mode with `Mp -> Access.reset_snapshots ov | `Shared -> ());
  Election.reconcile_roots ov;
  run ov;
  (match mode with
  | `Shared -> ()
  | `Mp ->
      (* Phase 1: every process in the plan queries each of its
         neighbors once. *)
      let query id =
        match state ov id with
        | Some s when is_alive ov id ->
            Node_id.Set.iter
              (fun nb ->
                Engine.inject ov.Access.engine ~dst:nb
                  (Message.Query { asker = id }))
              (Access.neighbors_of s)
        | Some _ | None -> ()
      in
      (match plan with
      | Full -> List.iter query (alive_ids ov)
      | Entries es -> List.iter (fun (id, _) -> query id) es);
      run ov);
  let view s =
    match mode with
    | `Shared -> Access.direct ov s
    | `Mp -> Access.snapshot ov s
  in
  let exec f =
    Telemetry.record_exec tele;
    f ()
  in
  (* Phase 2: the four local modules over views, in the same
     module/process/height order under both plans — a clean entry is a
     no-op, so an incremental round performs exactly the repairs the
     full round would for the marks present at round start. Entries
     marked mid-round wait for the next round, where a full sweep's
     later passes would catch them this round — interacting repair
     cascades can therefore settle on different, equally legal
     fixpoints; see DESIGN.md §10. *)
  let local_pass ~floor check =
    match plan with
    | Full ->
        each ov (fun s ->
            let v = view s in
            for h = floor to State.top s do
              exec (fun () -> check v h)
            done)
    | Entries es ->
        each_entries ov es (fun s hs ->
            let v = view s in
            List.iter
              (fun h ->
                if h >= floor && h <= State.top s then
                  exec (fun () -> check v h))
              hs)
  in
  local_pass ~floor:0 Repair.check_mbr;
  local_pass ~floor:1 Repair.check_children;
  local_pass ~floor:0 Repair.check_parent;
  run ov;
  local_pass ~floor:1 Repair.check_cover;
  (* Phase 3: multi-party transactions (atomic locked exchanges). *)
  (match plan with
  | Full ->
      each ov (fun s ->
          for h = 2 to State.top s do
            exec (fun () -> Repair.check_structure ov s h)
          done)
  | Entries es ->
      each_entries ov es (fun s hs ->
          List.iter
            (fun h ->
              if h >= 2 && h <= State.top s then
                exec (fun () -> Repair.check_structure ov s h))
            hs));
  Election.shrink_root ov;
  (* Agg_repair, co-scheduled with the CHECK_* modules: reconcile the
     aggregation subsystem's soft state with the repaired tree. *)
  (match ov.Access.agg_repair with Some f -> f () | None -> ());
  run ov;
  let execs = Telemetry.execs tele - execs0 in
  let skipped =
    match plan with Full -> 0 | Entries _ -> max 0 (full_equiv - execs)
  in
  Telemetry.end_round tele
    ~messages:(Engine.messages_sent ov.Access.engine)
    ~bytes:(Engine.bytes_sent ov.Access.engine)
    ~skipped

let stabilize_round (ov : t) = round_body ov ~mode:`Shared
let stabilize_round_mp (ov : t) = round_body ov ~mode:`Mp

let mark_all (ov : t) =
  iter_states ov (fun id s ->
      for h = 0 to State.top s do
        Access.mark ov id h
      done)

(* Quiescence-driven convergence, both schedulers: while the dirty set
   is non-empty there is pending repair work, so spin rounds without
   paying for a global legality scan. Once quiescent, one full
   {!Invariant} check confirms (or refutes) convergence. Quiescent but
   illegal means silent corruption the write-path tracking never saw —
   escalate by marking everything, which makes the next round
   full-sweep-equivalent and keeps the periodic model's round budget
   (Lemmas 3.3–3.6) valid for the incremental scheduler too. *)
let stabilize_gen ~round ?(max_rounds = 50) ~legal ov =
  let rec loop rounds =
    if Dirty.is_empty (access ov).Access.dirty then
      if legal ov then Some rounds
      else if rounds >= max_rounds then None
      else begin
        mark_all ov;
        round ov;
        loop (rounds + 1)
      end
    else if rounds >= max_rounds then if legal ov then Some rounds else None
    else begin
      round ov;
      loop (rounds + 1)
    end
  in
  loop 0

let stabilize ?max_rounds ~legal ov =
  stabilize_gen ~round:stabilize_round ?max_rounds ~legal ov

let stabilize_mp ?max_rounds ~legal ov =
  stabilize_gen ~round:stabilize_round_mp ?max_rounds ~legal ov

(* --- Metrics -------------------------------------------------------------- *)

let state_probes (ov : t) = Telemetry.probes ov.Access.tele
let reset_state_probes (ov : t) = Telemetry.reset_probes ov.Access.tele
let fp_swap_round = Dissemination.fp_swap_round

(* --- Aggregation hooks ----------------------------------------------------- *)

let set_agg_handler (ov : t) h = ov.Access.agg_handler <- h
let set_agg_repair (ov : t) r = ov.Access.agg_repair <- r

(* --- Failure-detection hooks ----------------------------------------------- *)

let set_fd_handler (ov : t) h = ov.Access.fd_handler <- h
let set_fd_round (ov : t) r = ov.Access.fd_round <- r
let set_fd_contact (ov : t) c = ov.Access.fd_contact <- c
