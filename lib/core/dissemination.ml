module Rect = Geometry.Rect
module Node_id = Sim.Node_id
module Engine = Sim.Engine

(* Selective event dissemination (§3): an event climbs to the root
   from its producer and descends every sibling subtree whose MBR
   contains it. Along the way each interior instance accumulates the
   §3.2 false-positive interest counters that drive the dynamic
   reorganization ([fp_swap_round]). *)

type report = {
  event_id : int;
  matched : Node_id.Set.t;
  delivered : Node_id.Set.t;
  received : Node_id.Set.t;
  false_positives : int;
  false_negatives : int;
  messages : int;
  max_hops : int;
}

let record_fp_interest (net : Access.net) sp h point =
  let p = State.id sp in
  let l = State.level_exn sp h in
  let counter = Telemetry.fp_counter net.Access.tele p h in
  if not (Rect.contains_point (State.filter sp) point) then
    counter.Telemetry.self_fp <- counter.Telemetry.self_fp + 1;
  Node_id.Set.iter
    (fun c ->
      if not (Node_id.equal c p) then
        match Access.read net c with
        | Some sc when not (Rect.contains_point (State.filter sc) point) ->
            let n =
              match Hashtbl.find_opt counter.Telemetry.would c with
              | Some n -> n
              | None -> 0
            in
            Hashtbl.replace counter.Telemetry.would c (n + 1)
        | Some _ | None -> ())
    l.State.children

let handle_publish (net : Access.net) ctx sp ~event_id ~point ~at ~from_child
    ~going_up ~hops =
  let p = State.id sp in
  (* Receipt bookkeeping at first touch of this process. *)
  (match Telemetry.event net.Access.tele event_id with
  | Some rec_ ->
      if State.mark_seen sp event_id then begin
        rec_.Telemetry.received <- Node_id.Set.add p rec_.Telemetry.received;
        if Rect.contains_point (State.filter sp) point then
          rec_.Telemetry.delivered <-
            Node_id.Set.add p rec_.Telemetry.delivered
      end;
      if hops > rec_.Telemetry.max_hops then rec_.Telemetry.max_hops <- hops
  | None -> ());
  if hops <= net.Access.cfg.Config.publish_ttl && State.is_active sp at
  then begin
    let l = State.level_exn sp at in
    if at >= 1 then begin
      record_fp_interest net sp at point;
      Node_id.Set.iter
        (fun c ->
          let excluded =
            match from_child with
            | Some f -> Node_id.equal f c
            | None -> false
          in
          if not excluded then
            match Access.mbr_of net (at - 1) c with
            | Some m when Rect.contains_point m point ->
                Engine.send ctx c
                  (Message.Publish
                     { event_id; point; at = at - 1; from_child = None;
                       going_up = false; hops = hops + 1 })
            | Some _ | None -> ())
        l.State.children
    end;
    if going_up && not (State.is_root sp at) then begin
      let parent = if at < State.top sp then p else l.State.parent in
      Engine.send ctx parent
        (Message.Publish
           { event_id; point; at = at + 1; from_child = Some p;
             going_up = true; hops = hops + 1 })
    end
  end

let publish (net : Access.net) ~run ~from point =
  if not (Access.is_alive net from) then
    invalid_arg "Overlay.publish: dead publisher";
  let event_id = Telemetry.fresh_event_id net.Access.tele in
  (* Ground truth: the live processes whose filter contains the point.
     The index narrows the scan to containing filters; the test itself
     is the exhaustive one, applied per candidate. *)
  let matched =
    List.fold_left
      (fun acc id ->
        match Access.read net id with
        | Some s when Rect.contains_point (State.filter s) point ->
            Node_id.Set.add id acc
        | Some _ | None -> acc)
      Node_id.Set.empty (Access.filter_candidates net point)
  in
  let rec_ =
    Telemetry.register_event net.Access.tele ~event_id ~matched ~origin:from
  in
  let m0 = Engine.messages_sent net.Access.engine in
  let top = match Access.read net from with Some s -> State.top s | None -> 0 in
  Engine.inject net.Access.engine ~dst:from
    (Message.Publish
       { event_id; point; at = top; from_child = None; going_up = true;
         hops = 0 });
  (* Cross-shard fan-out (DESIGN.md §14): the climb above reaches only
     the producer's own tree, so hand the event to every {e other}
     shard root whose top MBR contains the point — exactly the roots
     owning a subscriber that could match (a matching filter is inside
     its home root's MBR in legal states), descending only
     ([going_up = false]: a root has nowhere to climb). Never entered
     under [Single]: the producer's home is the only shard. *)
  let producer_home = Access.home_of net from in
  for shard = 0 to Access.shard_count net - 1 do
    if shard <> producer_home then
      match Access.designated_root_in net shard with
      | None -> ()
      | Some r -> (
          match Access.read net r with
          | Some sr -> (
              let rtop = State.top sr in
              match State.mbr_at sr rtop with
              | Some m when Rect.contains_point m point ->
                  Engine.inject net.Access.engine ~dst:r
                    (Message.Publish
                       { event_id; point; at = rtop; from_child = None;
                         going_up = false; hops = 1 })
              | Some _ | None -> ())
          | None -> ())
  done;
  run ();
  let messages = Engine.messages_sent net.Access.engine - m0 - 1 in
  let spurious =
    Node_id.Set.remove from
      (Node_id.Set.diff rec_.Telemetry.received rec_.Telemetry.matched)
  in
  let missed =
    Node_id.Set.diff rec_.Telemetry.matched rec_.Telemetry.delivered
  in
  (* The record lives for this call only: a Publish still in flight
     after [run] finds no record and is forwarded without accounting. *)
  Telemetry.forget_event net.Access.tele event_id;
  {
    event_id;
    matched = rec_.Telemetry.matched;
    delivered = rec_.Telemetry.delivered;
    received = rec_.Telemetry.received;
    false_positives = Node_id.Set.cardinal spurious;
    false_negatives = Node_id.Set.cardinal missed;
    messages;
    max_hops = rec_.Telemetry.max_hops;
  }

(* Dynamic reorganization (§3.2): every interior instance compares its
   accumulated false-positive count with what each child would have
   experienced in its place, and swaps roles with the best child when
   beneficial. Clears the counters. *)
let fp_swap_round (net : Access.net) =
  let swaps = ref 0 in
  List.iter
    (fun ((p, h), counter) ->
      match Access.read net p with
      | Some sp when h >= 1 && State.is_active sp h -> (
          let l = State.level_exn sp h in
          let best =
            Node_id.Set.fold
              (fun c acc ->
                if Node_id.equal c p then acc
                else
                  match Hashtbl.find_opt counter.Telemetry.would c with
                  | None -> acc
                  | Some n -> (
                      match acc with
                      | Some (_, bn) when bn <= n -> acc
                      | _ -> Some (c, n)))
              l.State.children None
          in
          match best with
          | Some (c, n)
            when counter.Telemetry.self_fp > n && Access.read net c <> None ->
              Repair.adjust_parent net sp c h;
              incr swaps
          | Some _ | None -> ())
      | Some _ | None -> ())
    (Telemetry.fp_entries net.Access.tele);
  Telemetry.reset_fp net.Access.tele;
  !swaps
