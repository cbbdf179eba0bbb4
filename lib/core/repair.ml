module Rect = Geometry.Rect
module Node_id = Sim.Node_id
module Engine = Sim.Engine

(* The five stabilization modules of Figs. 10–14, each written once
   against an {!Access.t} view. A [Direct] view gives the paper's
   shared-state presentation (neighbor reads are free and counted as
   probes); a [Snapshot] view gives the message-passing mode, where
   detection sees only this round's QUERY/REPORT data. The multi-party
   transactions — role exchange ([adjust_parent]), compaction, member
   moves — always commit against live state: their two-phase-commit
   machinery is orthogonal to the paper, so they stay atomic locked
   exchanges in both modes. *)

let update_underloaded cfg l =
  l.State.underloaded <-
    Node_id.Set.cardinal l.State.children < cfg.Config.min_fill

(* Mark the holder of the set that contains [sp]'s instance at height
   [h] — an MBR change at [h] invalidates the union one level up. For
   a non-top instance that holder is [sp] itself (self-chain); for the
   top instance it is the external parent, unless [sp] is the root. *)
let mark_up net sp h =
  let p = State.id sp in
  if h < State.top sp then Access.mark net p (h + 1)
  else
    match State.level sp h with
    | Some l when not (Node_id.equal l.State.parent p) ->
        Access.mark net l.State.parent (h + 1)
    | Some _ | None -> ()

(* Compute_MBR: the instance MBR is the union of the children MBRs
   (leaf instances carry their filter). Unreadable children are
   skipped; CHECK_CHILDREN evicts them. *)
let compute_mbr_v v h =
  let sp = Access.self v in
  let l = State.level_exn sp h in
  if h = 0 then l.State.mbr <- State.filter sp
  else begin
    let mbrs =
      Node_id.Set.fold
        (fun c acc ->
          match Access.member_mbr v (h - 1) c with
          | Some r -> r :: acc
          | None -> acc)
        l.State.children []
    in
    match mbrs with
    | [] -> l.State.mbr <- State.filter sp
    | r :: rest -> l.State.mbr <- List.fold_left Rect.union r rest
  end

let compute_mbr net sp h = compute_mbr_v (Access.direct net sp) h

(* Is_Better_MBR_Cover(p, q, l): among the children of p's instance at
   height [h], does member q cover more than p's own member instance? *)
let is_better_mbr_cover net sp q h =
  Access.area_of net (h - 1) q > Access.area_of net (h - 1) (State.id sp)

(* Adjust_Parent(p, q, h): member q and holder p "exchange their
   positions". Because p is recursively its own child, p's roles at
   every height >= h belong to the same self-chain, so the exchange
   cascades: q takes over p's children set, MBR and parent link at
   each height from [h] to p's top (replacing p by q among the
   members above [h]), the members reparent to q, the external parent
   (or root role) transfers, and p withdraws to height [h - 1]. *)
let adjust_parent (net : Access.net) sp q h =
  let p = State.id sp in
  let top = State.top sp in
  let was_root = State.is_root sp top in
  let upper_parent = (State.level_exn sp top).State.parent in
  let sq =
    match Access.read net q with
    | Some s -> s
    | None -> invalid_arg "adjust_parent: dead child"
  in
  for k = h to top do
    let lp = State.level_exn sp k in
    let lq = State.activate sq k in
    lq.State.children <-
      (if k = h then lp.State.children
       else Node_id.Set.add q (Node_id.Set.remove p lp.State.children));
    lq.State.mbr <- lp.State.mbr;
    lq.State.parent <- q;
    Node_id.Set.iter
      (fun s ->
        match Access.read net s with
        | Some ss when State.is_active ss (k - 1) ->
            (State.level_exn ss (k - 1)).State.parent <- q;
            Access.mark net s (k - 1)
        | Some _ | None -> ())
      lq.State.children;
    update_underloaded net.Access.cfg lq;
    Access.mark net q k;
    Telemetry.clear_fp net.Access.tele p k;
    Telemetry.clear_fp net.Access.tele q k
  done;
  let lq_top = State.level_exn sq top in
  lq_top.State.parent <- (if was_root then q else upper_parent);
  compute_mbr net sq h;
  (* Patch the external parent: q replaces p among its children. *)
  (if not was_root then
     match Access.read net upper_parent with
     | Some spar when State.is_active spar (top + 1) ->
         let lpar = State.level_exn spar (top + 1) in
         if Node_id.Set.mem p lpar.State.children then
           lpar.State.children <-
             Node_id.Set.add q (Node_id.Set.remove p lpar.State.children);
         Access.mark net upper_parent (top + 1)
     | Some _ | None -> ());
  State.deactivate_above sp (h - 1);
  Access.mark net q top;
  Access.mark net p (h - 1)

(* Fig. 10: repair the MBR value. *)
let check_mbr v h =
  let sp = Access.self v in
  if State.is_active sp h then begin
    let l = State.level_exn sp h in
    let before = l.State.mbr in
    if h = 0 then begin
      if not (Rect.equal l.State.mbr (State.filter sp)) then
        l.State.mbr <- State.filter sp
    end
    else compute_mbr_v v h;
    if not (Rect.equal before l.State.mbr) then begin
      let net = Access.network v in
      Access.mark net (State.id sp) h;
      mark_up net sp h;
      Telemetry.record_repair net.Access.tele Telemetry.Mbr
    end
  end

(* Fig. 12: evict children that are dead, inactive at the child
   height, or claimed by another parent; refresh the underloaded
   flag. *)
let check_children v h =
  let sp = Access.self v in
  if h >= 1 && State.is_active sp h then begin
    let p = State.id sp in
    let net = Access.network v in
    let home = Access.home_of net p in
    let l = State.level_exn sp h in
    (* A child homed on another shard is evicted even if it claims us:
       without this guard a doubly-corrupted — but mutually coherent —
       cross-shard edge would be a stable illegal state (the
       disjointness condition of Invariant.check). [home_of] is
       probe-free and constant under [Single], so the keep-test's
       observable reads are exactly the pre-forest ones. *)
    let keep c =
      Node_id.equal c p
      || (Access.claims_parent v ~child:c ~h:(h - 1)
         && Access.home_of net c = home)
    in
    let kept = Node_id.Set.filter keep l.State.children in
    (* The holder is recursively its own child (§3): restore the
       self-member if corruption dropped it. *)
    let kept = Node_id.Set.add p kept in
    if not (Node_id.Set.equal kept l.State.children) then begin
      l.State.children <- kept;
      compute_mbr_v v h;
      let net = Access.network v in
      Access.mark net p h;
      mark_up net sp h;
      Telemetry.record_repair net.Access.tele Telemetry.Children
    end;
    update_underloaded (Access.network v).Access.cfg l
  end

(* Fig. 11: if the instance is absent from its parent's children set
   (or the parent is unreachable), become self-parented and re-join
   through the contact oracle. Lower instances of the self-chain are
   repaired locally. *)
let check_parent v h =
  let sp = Access.self v in
  if State.is_active sp h then begin
    let p = State.id sp in
    let net = Access.network v in
    let l = State.level_exn sp h in
    if h < State.top sp then begin
      if not (Node_id.equal l.State.parent p) then begin
        l.State.parent <- p;
        Access.mark net p h;
        Telemetry.record_repair net.Access.tele Telemetry.Parent
      end
    end
    else if not (Node_id.equal l.State.parent p) then begin
      (* An other-shard parent counts as not attached (the dual of the
         check_children eviction guard): the instance self-parents and
         re-joins through its {e home} shard's oracle. *)
      let attached =
        Access.attached_to v ~parent:l.State.parent ~h:(h + 1)
        && Access.home_of net l.State.parent = Access.home_of net p
      in
      if not attached then begin
        l.State.parent <- p;
        Access.mark net p h;
        Access.initiate_join net ~joiner:p ~mbr:l.State.mbr ~height:h;
        Telemetry.record_repair net.Access.tele Telemetry.Parent
      end
    end
  end

(* Fig. 13: if some member covers more than the holder's own member
   instance, they exchange positions. *)
let check_cover v h =
  let sp = Access.self v in
  if h >= 1 && State.is_active sp h then begin
    let p = State.id sp in
    let net = Access.network v in
    let l = State.level_exn sp h in
    let own = Access.member_area v (h - 1) p in
    let best =
      Node_id.Set.fold
        (fun c acc ->
          if Node_id.equal c p then acc
          else
            let a = Access.member_area v (h - 1) c in
            match acc with
            | Some (_, ba) when ba >= a -> acc
            | _ when a > own -> Some (c, a)
            | _ -> acc)
        l.State.children None
    in
    match best with
    | Some (q, _) when Access.confirm_alive net q ->
        (* the exchange itself is a locked multi-party transaction *)
        adjust_parent net sp q h;
        Telemetry.record_repair net.Access.tele Telemetry.Cover
    | Some _ | None -> ()
  end

(* {2 Compaction helpers (Fig. 14, direct-only: commits against live
   state)} *)

(* Best_Set_Cover: of the two merge candidates, keep the one whose own
   filter leaves the least of the merged set uncovered. *)
let best_set_cover (net : Access.net) s t h =
  let set_mbr =
    let ms = Access.mbr_of net h s and mt = Access.mbr_of net h t in
    match (ms, mt) with
    | Some a, Some b -> Some (Rect.union a b)
    | Some a, None | None, Some a -> Some a
    | None, None -> None
  in
  match set_mbr with
  | None -> s
  | Some mbr ->
      let uncovered id =
        match Access.read net id with
        | Some st ->
            Rect.area (Rect.union mbr (State.filter st))
            -. Rect.area (State.filter st)
        | None -> infinity
      in
      if uncovered s <= uncovered t then s else t

(* Merge_Children(winner, loser, h): the loser's members move under
   the winner; the loser withdraws from height [h]. *)
let merge_children (net : Access.net) winner loser h =
  match (Access.read net winner, Access.read net loser) with
  | Some sw, Some sl when State.is_active sw h && State.is_active sl h ->
      let lw = State.level_exn sw h and ll = State.level_exn sl h in
      lw.State.children <-
        Node_id.Set.union lw.State.children ll.State.children;
      Node_id.Set.iter
        (fun s ->
          match Access.read net s with
          | Some ss when State.is_active ss (h - 1) ->
              (State.level_exn ss (h - 1)).State.parent <- winner;
              Access.mark net s (h - 1)
          | Some _ | None -> ())
        ll.State.children;
      State.deactivate_above sl (h - 1);
      Telemetry.clear_fp net.Access.tele loser h;
      compute_mbr net sw h;
      update_underloaded net.Access.cfg lw;
      Access.mark net winner h;
      Access.mark net loser (h - 1);
      mark_up net sw h
  | _, _ -> ()

let member_underloaded net cfg h id =
  match Access.read net id with
  | Some s when h >= 1 && State.is_active s h ->
      Node_id.Set.cardinal (State.level_exn s h).State.children
      < cfg.Config.min_fill
  | Some _ | None -> false

(* Search_Compaction_Candidate: a sibling whose member set can absorb
   [q]'s without overflowing, closest in MBR. *)
let search_compaction_candidate (net : Access.net) sp q hs =
  let cfg = net.Access.cfg in
  let l = State.level_exn sp hs in
  let q_children =
    match Access.read net q with
    | Some sq when State.is_active sq (hs - 1) ->
        (State.level_exn sq (hs - 1)).State.children
    | Some _ | None -> Node_id.Set.empty
  in
  let q_mbr = Access.mbr_of net (hs - 1) q in
  let feasible t =
    if Node_id.equal t q then None
    else
      match Access.read net t with
      | Some st when State.is_active st (hs - 1) ->
          let tc = (State.level_exn st (hs - 1)).State.children in
          if
            Node_id.Set.cardinal (Node_id.Set.union tc q_children)
            <= cfg.Config.max_fill
          then
            let score =
              match (Access.mbr_of net (hs - 1) t, q_mbr) with
              | Some mt, Some mq -> Rect.area (Rect.union mt mq)
              | Some mt, None -> Rect.area mt
              | None, Some mq -> Rect.area mq
              | None, None -> infinity
            in
            Some (t, score)
          else None
      | Some _ | None -> None
  in
  Node_id.Set.fold
    (fun t acc ->
      match feasible t with
      | None -> acc
      | Some (t, score) -> (
          match acc with
          | Some (_, best) when best <= score -> acc
          | _ -> Some (t, score)))
    l.State.children None

(* Move one member [c] (an instance at [hs - 2]) from the set of
   [from_] to the set of [to_], both instances at [hs - 1]. *)
let move_member (net : Access.net) from_ to_ c hs =
  match (Access.read net from_, Access.read net to_, Access.read net c) with
  | Some sf, Some st, Some sc
    when State.is_active sf (hs - 1) && State.is_active st (hs - 1)
         && State.is_active sc (hs - 2) ->
      let lf = State.level_exn sf (hs - 1)
      and lt = State.level_exn st (hs - 1) in
      lf.State.children <- Node_id.Set.remove c lf.State.children;
      lt.State.children <- Node_id.Set.add c lt.State.children;
      (State.level_exn sc (hs - 2)).State.parent <- to_;
      compute_mbr net sf (hs - 1);
      compute_mbr net st (hs - 1);
      update_underloaded net.Access.cfg lf;
      update_underloaded net.Access.cfg lt;
      Access.mark net from_ (hs - 1);
      Access.mark net to_ (hs - 1);
      Access.mark net c (hs - 2);
      true
  | _, _, _ -> false

let member_count net hs id =
  match Access.read net id with
  | Some s when State.is_active s hs ->
      Node_id.Set.cardinal (State.level_exn s hs).State.children
  | Some _ | None -> 0

(* Fig. 14: compact underloaded members pairwise; when no sibling can
   absorb a whole set, dispatch members one by one to unsaturated
   siblings; unplaceable subtrees dissolve and their leaves re-join.
   The structure holder [p] never loses its own instance (its
   self-chain carries the set at [hs]); when [p]'s own member instance
   is the underloaded one, a sibling is merged into it — or members
   are stolen from the richest sibling — instead. Always direct: the
   compaction is a multi-party transaction over live state in both
   stabilization modes. *)
let check_structure (net : Access.net) sp hs =
  if hs >= 2 && State.is_active sp hs then begin
    let p = State.id sp in
    let l = State.level_exn sp hs in
    Node_id.Set.iter
      (fun q ->
        match Access.read net q with
        | Some sq ->
            let vq = Access.direct net sq in
            check_children vq (hs - 1);
            check_mbr vq (hs - 1)
        | None -> ())
      l.State.children;
    let cfg = net.Access.cfg in
    let record_structure () =
      Access.mark net p hs;
      mark_up net sp hs;
      Telemetry.record_repair net.Access.tele Telemetry.Structure
    in
    let siblings_with_room q =
      Node_id.Set.fold
        (fun t acc ->
          if Node_id.equal t q then acc
          else
            let n = member_count net (hs - 1) t in
            if n > 0 && n < cfg.Config.max_fill then (t, n) :: acc else acc)
        l.State.children []
    in
    let dispatch_members q =
      (* Paper: "the children of q are dispatched to one of p's
         unsaturated children". Returns true when q's set emptied down
         to (at most) its own self-member. *)
      let sq = match Access.read net q with Some s -> s | None -> assert false in
      let members () =
        Node_id.Set.filter
          (fun c -> not (Node_id.equal c q))
          (State.level_exn sq (hs - 1)).State.children
      in
      let placed_all = ref true in
      Node_id.Set.iter
        (fun c ->
          match siblings_with_room q with
          | [] -> placed_all := false
          | room ->
              let t, _ =
                List.fold_left
                  (fun (bt, bn) (t, n) -> if n < bn then (t, n) else (bt, bn))
                  (List.hd room) (List.tl room)
              in
              if not (move_member net q t c hs) then placed_all := false)
        (members ());
      !placed_all
    in
    let steal_for_p () =
      (* Bring members into p's own underloaded set from the richest
         sibling that can spare one. *)
      match
        Node_id.Set.fold
          (fun t acc ->
            if Node_id.equal t p then acc
            else
              let n = member_count net (hs - 1) t in
              if n >= 2 then
                match acc with
                | Some (_, bn) when bn >= n -> acc
                | _ -> Some (t, n)
              else acc)
          l.State.children None
      with
      | None -> false
      | Some (t, _) -> (
          match Access.read net t with
          | Some st when State.is_active st (hs - 1) ->
              let movable =
                Node_id.Set.filter
                  (fun c -> not (Node_id.equal c t))
                  (State.level_exn st (hs - 1)).State.children
              in
              (match Node_id.Set.min_elt_opt movable with
              | Some c -> move_member net t p c hs
              | None -> false)
          | Some _ | None -> false)
    in
    let budget = ref (2 * (Node_id.Set.cardinal l.State.children + 2)) in
    let continue = ref true in
    while !continue && !budget > 0 do
      decr budget;
      let underloaded_member =
        Node_id.Set.fold
          (fun q acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if member_underloaded net cfg (hs - 1) q then Some q else None)
          l.State.children None
      in
      match underloaded_member with
      | None -> continue := false
      | Some q -> (
          match search_compaction_candidate net sp q hs with
          | Some (t, _) ->
              (* Elect_Leader, except [p] always survives as holder of
                 its own self-chain. *)
              let winner =
                if Node_id.equal t p then p
                else if Node_id.equal q p then p
                else best_set_cover net q t (hs - 1)
              in
              let loser = if Node_id.equal winner q then t else q in
              merge_children net winner loser (hs - 1);
              l.State.children <- Node_id.Set.remove loser l.State.children;
              compute_mbr net sp hs;
              update_underloaded cfg l;
              record_structure ()
          | None ->
              if Node_id.equal q p then begin
                if steal_for_p () then record_structure ()
                else continue := false
              end
              else if dispatch_members q then begin
                (* q's set is down to its self-member: q re-enters one
                   level lower under a sibling with room, or rejoins. *)
                (match siblings_with_room q with
                | (t, _) :: _ -> (
                    match Access.read net q with
                    | Some sq when State.is_active sq (hs - 2) ->
                        State.deactivate_above sq (hs - 2);
                        l.State.children <-
                          Node_id.Set.remove q l.State.children;
                        Access.mark net q (hs - 2);
                        (match Access.read net t with
                        | Some st when State.is_active st (hs - 1) ->
                            let lt = State.level_exn st (hs - 1) in
                            lt.State.children <-
                              Node_id.Set.add q lt.State.children;
                            (State.level_exn sq (hs - 2)).State.parent <- t;
                            compute_mbr net st (hs - 1);
                            update_underloaded net.Access.cfg lt;
                            Access.mark net t (hs - 1)
                        | Some _ | None -> ())
                    | Some _ | None ->
                        l.State.children <-
                          Node_id.Set.remove q l.State.children)
                | [] ->
                    Engine.inject net.Access.engine ~dst:q
                      (Message.Initiate_new_connection (hs - 1));
                    l.State.children <- Node_id.Set.remove q l.State.children);
                compute_mbr net sp hs;
                update_underloaded cfg l;
                record_structure ()
              end
              else begin
                Engine.inject net.Access.engine ~dst:q
                  (Message.Initiate_new_connection (hs - 1));
                l.State.children <- Node_id.Set.remove q l.State.children;
                compute_mbr net sp hs;
                update_underloaded cfg l;
                record_structure ()
              end)
    done
  end

(* After a join, sweep CHECK_COVER up the ancestor path: the descent
   extended MBRs along it, which may have left some member covering
   more than its set holder (Lemma 3.2's legitimacy after joins). A
   role exchange may displace the holder mid-sweep; the sweep always
   re-resolves the current holder of the height before climbing. *)
let cover_sweep (net : Access.net) sp h =
  if h >= 1 then begin
    (* the recipient may already have lost the role; its parent link at
       the member height names the new holder *)
    let initial_holder =
      if State.is_active sp h then Some (State.id sp)
      else if State.is_active sp (h - 1) then
        Some (State.level_exn sp (h - 1)).State.parent
      else None
    in
    match initial_holder with
    | None -> ()
    | Some hid -> (
        match Access.read net hid with
        | Some sh when State.is_active sh h -> (
            (* keep the MBR exact on the way up (joins only extend it,
               but departures shrink it), then restore cover
               optimality *)
            let vh = Access.direct net sh in
            check_mbr vh h;
            check_cover vh h;
            let hid2 =
              if State.is_active sh h then hid
              else if State.is_active sh (h - 1) then
                (State.level_exn sh (h - 1)).State.parent
              else hid
            in
            match Access.read net hid2 with
            | Some sh2 when State.is_active sh2 h ->
                if not (State.is_root sh2 h) then begin
                  let l = State.level_exn sh2 h in
                  let dst =
                    if h < State.top sh2 then hid2 else l.State.parent
                  in
                  Engine.inject net.Access.engine ~dst
                    (Message.Cover_sweep (h + 1))
                end
            | Some _ | None -> ())
        | Some _ | None -> ())
  end
