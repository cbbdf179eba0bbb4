module O = Drtree.Overlay
module Msg = Drtree.Message
module State = Drtree.State
module Tele = Drtree.Telemetry
module Access = Drtree.Access
module Repair = Drtree.Repair
module Config = Drtree.Config
module Engine = Sim.Engine
module Node_id = Sim.Node_id

(* Heartbeat/timeout failure detection (DESIGN.md §13). The paper
   assumes crashes are known; this runtime removes the assumption:
   every process emits HEARTBEAT messages each [period] of simulated
   time to the peers it monitors — its tree neighbors plus a ring of
   [fallbacks] successors/predecessors over the member registry,
   chord-successor style — and judges each monitored peer by silence
   alone. A peer silent for [timeout_factor] periods is suspected and
   challenged with a SUSPECT message; one further silent period
   confirms it dead, and the monitor initiates the departure {e
   locally}: it evicts the peer from its own children sets and marks
   the dirty entries the oracle's [mark_departure] would have marked,
   so CHECK_* and the incremental scheduler heal the tree with no
   global knowledge involved. Ground-truth liveness is consulted only
   to {e classify} verdicts for telemetry (false suspicions, false
   kills), never to make them. *)

(* Per-monitor soft state: everything here may be stale or wrong; the
   verdicts it produces only queue repair work, and repairs of live
   state are no-ops plus a fallback-contact rejoin. *)
type monitor = {
  last : float Node_id.Table.t;
      (* target -> time of this monitor's last evidence of life (a
         HEARTBEAT or SUSPECT from it; first-expectation grace) *)
  suspected : float Node_id.Table.t;
      (* target -> time the suspicion was raised *)
}

type t = {
  ov : O.t;
  net : Access.net;
  period : float;
  timeout_factor : int;
  fallbacks : int;
  monitors : monitor Node_id.Table.t;
  members : unit Node_id.Table.t;
      (* the registry the fallback ring is built over: seeded from the
         overlay's membership log (joins are announced, so who joined
         is known; who died is what this subsystem infers) plus any
         heartbeat received, shrinks only on confirmed kills — so a
         silently crashed process keeps its ring monitors until one of
         them convicts it, and a falsely convicted live process
         re-enters on its next sign of life *)
  mutable registered : int;
      (* the membership-log watermark: every id below it that has a
         state was offered to [members] once (see [catch_up]) *)
  mutable members_changed : bool; (* since [registry] was last sorted *)
  mutable registry : Node_id.t array; (* [members], sorted *)
  mutable next_wave : float;
  mutable seq : int; (* wave counter, carried by HEARTBEAT/SUSPECT *)
  confirmed : float Node_id.Table.t;
      (* target -> time of the first confirmed-dead verdict *)
}

let overlay t = t.ov
let period t = t.period
let tele t = O.telemetry t.ov

let monitor_of t p =
  match Node_id.Table.find_opt t.monitors p with
  | Some m -> m
  | None ->
      let m =
        { last = Node_id.Table.create 8; suspected = Node_id.Table.create 4 }
      in
      Node_id.Table.replace t.monitors p m;
      m

(* A convicted process stays out of the registry, else the ring would
   convict it over and over (an id can even be convicted before it is
   spawned: corruption writes arbitrary ids into tree links). Fresh
   evidence of life ({!observe}) lifts the conviction first, so a
   falsely killed live process does re-enter. [members_changed] tells
   the next wave to re-sort. *)
let member_add t q =
  if not (Node_id.Table.mem t.confirmed q || Node_id.Table.mem t.members q)
  then begin
    Node_id.Table.replace t.members q ();
    t.members_changed <- true
  end

let member_remove t q =
  if Node_id.Table.mem t.members q then begin
    Node_id.Table.remove t.members q;
    t.members_changed <- true
  end

(* Catch the registry up with the membership log: offer every id
   spawned since the last wave (a state is created with its id, in
   [Overlay.join_async]), then re-sort only if membership changed.
   Offering each id once suffices: an id leaves [members] only when
   convicted, and re-enters only through {!observe}, which lifts the
   conviction and re-adds it itself. *)
let catch_up t =
  let spawned = Engine.spawned_count t.net.Access.engine in
  for id = t.registered to spawned - 1 do
    if Option.is_some (Access.state t.net id) then member_add t id
  done;
  t.registered <- spawned;
  if t.members_changed then begin
    let ids = Node_id.Table.fold (fun id () acc -> id :: acc) t.members [] in
    t.registry <- Array.of_list (List.sort Node_id.compare ids);
    t.members_changed <- false
  end

(* Position of [p] in the sorted registry — or, when absent, of its
   successor — for ring arithmetic. *)
let registry_pos t p =
  let reg = t.registry in
  let n = Array.length reg in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Node_id.compare reg.(mid) p < 0 then lo := mid + 1 else hi := mid
  done;
  !lo mod max 1 n

(* The ring slice of [p]'s monitored set: its [fallbacks] successors
   and predecessors in id order, wrapping — the chord-style fallback
   contacts that guarantee every member (a childless root included)
   has monitors beyond its tree links. *)
let ring_of t p =
  let reg = t.registry in
  let n = Array.length reg in
  if n <= 1 || t.fallbacks = 0 then Node_id.Set.empty
  else begin
    let i = registry_pos t p in
    let base = if Node_id.equal reg.(i) p then i else i + n - 1 in
    let acc = ref Node_id.Set.empty in
    for k = 1 to min t.fallbacks (n - 1) do
      let s = reg.((i + k) mod n) in
      if not (Node_id.equal s p) then acc := Node_id.Set.add s !acc;
      let pr = reg.((base - k + (2 * n)) mod n) in
      if not (Node_id.equal pr p) then acc := Node_id.Set.add pr !acc
    done;
    !acc
  end

(* Everything [p] expects heartbeats from this wave. *)
let targets_of t sp =
  Node_id.Set.union (Access.neighbors_of sp) (ring_of t (State.id sp))

(* Fallback-contact lookup for {!Access.initiate_join}: the first live
   ring successor of the joiner — retry-next-contact over the
   registry, so a falsely evicted process re-enters through peers it
   already monitors instead of the global oracle. *)
let ring_contact t joiner =
  let reg = t.registry in
  let n = Array.length reg in
  if n = 0 then None
  else begin
    let i = registry_pos t joiner in
    let found = ref None in
    let k = ref 0 in
    while !found = None && !k < n do
      let c = reg.((i + !k) mod n) in
      if (not (Node_id.equal c joiner)) && O.is_alive t.ov c then
        found := Some c;
      incr k
    done;
    !found
  end

(* Evidence of life: refresh the monitor's clock for [q], clear any
   standing suspicion — and lift a standing conviction, so a falsely
   killed live process re-enters the registry and is monitored
   again. *)
let observe t p q =
  let now = Engine.now t.net.Access.engine in
  let mon = monitor_of t p in
  Node_id.Table.replace mon.last q now;
  Node_id.Table.remove mon.suspected q;
  Node_id.Table.remove t.confirmed q;
  member_add t q

(* The confirmed-dead verdict: [p] initiates [q]'s departure with
   purely local actions — evict [q] from its own children sets (the
   eviction CHECK_CHILDREN would perform once [q] is unreadable,
   done eagerly so a {e false} kill is also a real fault the
   fallback-rejoin path must heal), and mark every entry the
   oracle-fed [mark_departure] would have marked from [p]'s side:
   its own instances whose parent was [q], and [q]'s instances
   themselves (harmless on a corpse; on a live [q] they queue its
   CHECK_PARENT re-attachment). *)
let confirm t mon p sp q ~seen ~now =
  Node_id.Table.remove mon.suspected q;
  Node_id.Table.remove mon.last q;
  let false_kill = O.is_alive t.ov q in
  Tele.record_fd_confirm (tele t) ~false_kill ~latency:(now -. seen);
  if not (Node_id.Table.mem t.confirmed q) then
    Node_id.Table.replace t.confirmed q now;
  member_remove t q;
  for h = 1 to State.top sp do
    match State.level sp h with
    | Some l when Node_id.Set.mem q l.State.children ->
        l.State.children <- Node_id.Set.remove q l.State.children;
        Repair.update_underloaded t.net.Access.cfg l;
        Repair.compute_mbr t.net sp h;
        Access.mark t.net p h;
        Repair.mark_up t.net sp h
    | Some _ | None -> ()
  done;
  for h = 0 to State.top sp do
    match State.level sp h with
    | Some l when Node_id.equal l.State.parent q -> Access.mark t.net p h
    | Some _ | None -> ()
  done;
  (match Access.state t.net q with
  | Some sq ->
      for h = 0 to State.top sq do
        Access.mark t.net q h
      done
  | None -> ());
  Access.refresh_claimant t.net q

(* One monitored pair at wave time [now]. Order: verdicts first (on
   the evidence accumulated since the last wave), then this wave's
   heartbeat — scheduled one full period ahead through
   [inject_delayed], which is what makes [period] real in simulated
   time (processing the wave advances the clock past [next_wave]). *)
let step_pair t mon p sp q ~now =
  (match Node_id.Table.find_opt mon.last q with
  | None ->
      (* first expectation: grace *)
      Node_id.Table.replace mon.last q now
  | Some seen -> (
      match Node_id.Table.find_opt mon.suspected q with
      | Some since ->
          if seen > since then Node_id.Table.remove mon.suspected q
          else if now -. since >= t.period then
            confirm t mon p sp q ~seen ~now
      | None ->
          if now -. seen >= t.period *. float_of_int t.timeout_factor
          then begin
            Node_id.Table.replace mon.suspected q now;
            Tele.record_fd_suspicion (tele t)
              ~false_positive:(O.is_alive t.ov q);
            Engine.inject t.net.Access.engine ~dst:q
              (Msg.Suspect { suspect = q; by = p; seq = t.seq })
          end));
  if not (Node_id.Table.mem t.confirmed q) then
    Engine.inject_delayed t.net.Access.engine ~delay:t.period ~dst:q
      (Msg.Heartbeat { from = p; seq = t.seq })

(* The per-round tick, installed as the overlay's [fd_round] hook: it
   runs at the head of every stabilization round, so timeout verdicts
   mark the dirty set the same round drains. At most one wave per
   [period] of simulated time — rounds that arrive early (the clock
   has not reached [next_wave] yet) are free. *)
let tick t =
  let now = Engine.now t.net.Access.engine in
  if now >= t.next_wave then begin
    t.seq <- t.seq + 1;
    catch_up t;
    List.iter
      (fun p ->
        match O.state t.ov p with
        | Some sp when O.is_alive t.ov p ->
            let mon = monitor_of t p in
            Node_id.Set.iter
              (fun q -> step_pair t mon p sp q ~now)
              (targets_of t sp)
        | Some _ | None -> ())
      (O.alive_ids t.ov);
    t.next_wave <- now +. t.period
  end

(* {2 Message handling} *)

let handle t ctx sp msg =
  match msg with
  | Msg.Heartbeat { from; seq = _ } -> observe t (State.id sp) from
  | Msg.Suspect { suspect = _; by; seq } ->
      (* A live suspect defends itself: answer immediately (so at
         drop 0 no responsive process is ever confirmed dead), note
         that [by] is alive, and queue a self-check — if some monitor
         already evicted this process on the same silence, its
         CHECK_PARENT re-attaches it through the fallback ring. *)
      let p = State.id sp in
      observe t p by;
      Engine.send ctx by (Msg.Heartbeat { from = p; seq });
      for h = 0 to State.top sp do
        Access.mark t.net p h
      done
  | _ -> ()

(* {2 Lifecycle} *)

let attach ov =
  match (O.cfg ov).Config.detector with
  | Config.Oracle ->
      invalid_arg "Fd.Runtime.attach: Config.detector is Oracle"
  | Config.Heartbeat { period; timeout_factor; fallbacks } ->
      let t =
        {
          ov;
          net = O.access ov;
          period;
          timeout_factor;
          fallbacks;
          monitors = Node_id.Table.create 64;
          members = Node_id.Table.create 64;
          registered = 0;
          members_changed = false;
          registry = [||];
          next_wave = 0.0;
          seq = 0;
          confirmed = Node_id.Table.create 8;
        }
      in
      O.set_fd_handler ov (Some (fun ctx s msg -> handle t ctx s msg));
      O.set_fd_round ov (Some (fun () -> tick t));
      if fallbacks > 0 then
        O.set_fd_contact ov (Some (fun joiner -> ring_contact t joiner));
      t

let detach t =
  O.set_fd_handler t.ov None;
  O.set_fd_round t.ov None;
  O.set_fd_contact t.ov None

(* {2 Introspection (tests, fuzz, bench)} *)

let confirmed t =
  Node_id.Table.fold (fun q at acc -> (q, at) :: acc) t.confirmed []
  |> List.sort (fun (a, _) (b, _) -> Node_id.compare a b)

let is_confirmed t q = Node_id.Table.mem t.confirmed q

let suspicions t =
  Node_id.Table.fold
    (fun p mon acc ->
      Node_id.Table.fold
        (fun q since acc -> (p, q, since) :: acc)
        mon.suspected acc)
    t.monitors []
  |> List.sort compare

let registry t = Array.to_list t.registry
let wave t = t.seq
