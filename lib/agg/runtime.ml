module O = Drtree.Overlay
module Msg = Drtree.Message
module State = Drtree.State
module Tele = Drtree.Telemetry
module Access = Drtree.Access
module Engine = Sim.Engine
module Node_id = Sim.Node_id
module P = Geometry.Point

(* Per-process soft state. Everything here may be lost, duplicated or
   invalidated by churn; the repair pass reconciles it against the
   (repairing) tree, never the other way around. *)
type node_state = {
  queries : (int, Query.t) Hashtbl.t;
      (* standing queries known to this process *)
  pending : (int, Aggregate.t) Hashtbl.t;
      (* query_id -> fold of this epoch's own matching readings *)
  rx : (int * Node_id.t, int * Aggregate.t) Hashtbl.t;
      (* (query_id, child) -> (epoch, partial): the child's last
         received subtree partial — reused when the child suppresses *)
  sent : (int, Node_id.t * Aggregate.t) Hashtbl.t;
      (* query_id -> (parent, partial) this process last reported —
         the suppression reference *)
  merge_rx : (int * int, int * Aggregate.t) Hashtbl.t;
      (* (query_id, peer shard) -> (epoch, partial): a merge owner's
         cache of peer shard roots' last partials (DESIGN.md §15) —
         reused when a peer suppresses; keyed by shard, so a
         re-announce replaces, never double-counts. Empty at one
         shard. *)
  merge_sent : (int, Node_id.t * Aggregate.t) Hashtbl.t;
      (* query_id -> (owner root, partial) this shard root last
         reported cross-shard — the merge plane's suppression
         reference. Keyed to the owner root it was sent to, so a
         shard-root election invalidates it (the new owner has an
         empty cache and must be re-announced). Empty at one shard. *)
}

type t = {
  ov : O.t;
  net : Access.net;
  nodes : node_state Node_id.Table.t;
  registry : (int, Query.t) Hashtbl.t; (* client-side: every register *)
  results : (int, int * float option) Hashtbl.t;
      (* query_id -> (epoch, value) freshest Agg_result delivered *)
  mutable log : (P.t * float) list;
      (* the current epoch's raw readings (point, value) — the
         oracle's ground truth, newest first; reset by every
         [run_epoch], so history never accumulates *)
  mutable readings : (Node_id.t * P.t * float) list;
      (* injected since the last epoch, newest first *)
  mutable epoch : int;
  mutable next_query : int;
}

let overlay t = t.ov
let epoch t = t.epoch
let tele t = O.telemetry t.ov

let node_state t id =
  match Node_id.Table.find_opt t.nodes id with
  | Some ns -> ns
  | None ->
      let ns =
        { queries = Hashtbl.create 8; pending = Hashtbl.create 8;
          rx = Hashtbl.create 16; sent = Hashtbl.create 8;
          merge_rx = Hashtbl.create 8; merge_sent = Hashtbl.create 8 }
      in
      Node_id.Table.replace t.nodes id ns;
      ns

let sorted_query_ids tbl =
  List.sort compare (Hashtbl.fold (fun qid _ acc -> qid :: acc) tbl [])

(* {2 Message handling} *)

let forward_subscribe ctx s query hops =
  let p = State.id s in
  for l = 1 to State.top s do
    match State.level s l with
    | Some lvl ->
        Node_id.Set.iter
          (fun c ->
            if not (Node_id.equal c p) then
              Engine.send ctx c (Msg.Agg_subscribe { query; hops = hops + 1 }))
          lvl.State.children
    | None -> ()
  done

let handle t ctx s msg =
  match msg with
  | Msg.Agg_subscribe { query; hops } ->
      let ns = node_state t (State.id s) in
      let fresh = not (Hashtbl.mem ns.queries query.Query.query_id) in
      Hashtbl.replace ns.queries query.Query.query_id query;
      (* TTL-guarded flood down the children sets, like Publish. *)
      if fresh && hops < t.net.Access.cfg.Drtree.Config.publish_ttl then
        forward_subscribe ctx s query hops
  | Msg.Agg_partial { query_id; epoch; child; at; partial } ->
      let ns = node_state t (State.id s) in
      (* Stale partials — the sender lost its child role mid-flight, or
         we lost the instance the report targets — must not pollute the
         cache (the repair pass would have to undo them). *)
      if not (State.is_active s at) then Tele.record_agg_stale (tele t)
      else
        let lvl = State.level_exn s at in
        if not (Node_id.Set.mem child lvl.State.children) then
          Tele.record_agg_stale (tele t)
        else begin
          match Hashtbl.find_opt ns.rx (query_id, child) with
          | Some (e, _) when e > epoch ->
              (* an out-of-order duplicate from a finished epoch *)
              Tele.record_agg_stale (tele t)
          | Some _ | None ->
              Hashtbl.replace ns.rx (query_id, child) (epoch, partial)
        end
  | Msg.Agg_result { query_id; epoch; value } -> (
      match Hashtbl.find_opt t.results query_id with
      | Some (e, _) when e > epoch -> ()
      | Some _ | None -> Hashtbl.replace t.results query_id (epoch, value))
  | Msg.Agg_merge { query_id; epoch; shard; partial } ->
      (* A peer shard root's partial for the epoch (DESIGN.md §15).
         The recipient may have lost the merge-owner-root role
         mid-flight — cache anyway (keyed by shard, so nothing can
         double-count) and let the repair pass purge misplaced
         entries; an unknown query is unusable and dropped. *)
      let ns = node_state t (State.id s) in
      if not (Hashtbl.mem ns.queries query_id) then
        Tele.record_agg_stale (tele t)
      else begin
        match Hashtbl.find_opt ns.merge_rx (query_id, shard) with
        | Some (e, _) when e > epoch ->
            (* an out-of-order duplicate from a finished epoch *)
            Tele.record_agg_stale (tele t)
        | Some _ | None ->
            Hashtbl.replace ns.merge_rx (query_id, shard) (epoch, partial)
      end
  | _ -> ()

(* {2 Epoch driver} *)

(* Fold own readings, then every external child's cached partial, over
   all heights this process holds — the subtree partial its parent
   should see. *)
let combined ns s qid =
  let p = State.id s in
  let acc =
    ref
      (match Hashtbl.find_opt ns.pending qid with
      | Some a -> a
      | None -> Aggregate.identity)
  in
  for l = 1 to State.top s do
    (match State.level s l with
    | Some lvl ->
        Node_id.Set.iter
          (fun c ->
            if not (Node_id.equal c p) then
              match Hashtbl.find_opt ns.rx (qid, c) with
              | Some (_, part) -> acc := Aggregate.merge !acc part
              | None -> ())
          lvl.State.children
    | None -> ())
  done;
  !acc

(* {2 The forest-wide merge plane} (DESIGN.md §15)

   A query's coverage is every shard whose Z-range intersects its
   rectangle — the dual of the publish fan-out, and a pure function of
   the grid. Producers report readings at points of their own filter
   (home = the Z-cell of the filter's center), so a matching
   producer's home shard always lies in the coverage: fanning the
   subscription out to the covered shards only loses nothing. *)
let coverage t q = Access.intersecting_shards t.net q.Query.q_rect

(* The process that finalizes a query this epoch: the designated root
   of the lowest-numbered covered shard that has one (the merge-owner
   rule is grid-pure; skipping rootless — i.e. empty — shards is the
   only schedule-dependent part, and it is computed sequentially by
   the driver). When every covered shard is empty no covered producer
   exists either, and the global fallback root finalizes the identity
   partial so COUNT/SUM still deliver their zero. *)
let merge_owner_root t q =
  let rec pick = function
    | [] -> (
        match Access.designated_root t.net with
        | Some r -> Some (Access.home_of t.net r, r)
        | None -> None)
    | sh :: rest -> (
        match Access.designated_root_in t.net sh with
        | Some r -> Some (sh, r)
        | None -> pick rest)
  in
  pick (coverage t q)

let report_up t id s =
  let ns = node_state t id in
  let top = State.top s in
  List.iter
    (fun qid ->
      let q = Hashtbl.find ns.queries qid in
      let c = combined ns s qid in
      if State.is_root s top then begin
        (* At one shard the root finalizes here — the pre-forest path,
           bit-identical under [Config.forest = Single]. Under a
           forest, finalization moves to the cross-shard merge step
           after the height waves (the owner root must combine every
           covered shard's partial first). *)
        if Access.shard_count t.net = 1 then
          Engine.inject t.net.Access.engine ~dst:q.Query.q_owner
            (Msg.Agg_result
               { query_id = qid; epoch = t.epoch;
                 value = Aggregate.finalize q.Query.q_fn c })
      end
      else
        let parent = (State.level_exn s top).State.parent in
        if not (Node_id.equal parent id) then begin
          (* TiNA suppression: within tolerance of what this parent
             already holds, let it reuse the cached partial. *)
          match Hashtbl.find_opt ns.sent qid with
          | Some (prev_parent, prev)
            when Node_id.equal prev_parent parent
                 && Aggregate.delta prev c <= q.Query.q_tct ->
              Tele.record_agg_suppressed (tele t)
          | Some _ | None ->
              Hashtbl.replace ns.sent qid (parent, c);
              Tele.record_agg_sent (tele t);
              Engine.inject t.net.Access.engine ~dst:parent
                (Msg.Agg_partial
                   { query_id = qid; epoch = t.epoch; child = id;
                     at = top + 1; partial = c })
        end)
    (sorted_query_ids ns.queries)

let inject t ~from point value =
  if O.is_alive t.ov from then t.readings <- (from, point, value) :: t.readings

let run_epoch t =
  t.epoch <- t.epoch + 1;
  Tele.begin_agg_epoch (tele t) ~epoch:t.epoch;
  (* Fold the readings injected since the last epoch into the leaves
     (and the ground-truth log, which keeps this epoch only). *)
  t.log <- [];
  List.iter
    (fun (id, p, v) ->
      if O.is_alive t.ov id then begin
        t.log <- (p, v) :: t.log;
        let ns = node_state t id in
        Hashtbl.iter
          (fun qid q ->
            if Query.matches q p then
              let cur =
                match Hashtbl.find_opt ns.pending qid with
                | Some a -> a
                | None -> Aggregate.identity
              in
              Hashtbl.replace ns.pending qid
                (Aggregate.merge cur (Aggregate.of_value v)))
          ns.queries
      end)
    (List.rev t.readings);
  t.readings <- [];
  (* Height waves: every external child's top is strictly below its
     parent instance, so draining the engine between waves delivers
     each partial before the wave that consumes it. One report per
     process per query (at its topmost instance) — at most N-1 partial
     messages per query per epoch, versus N for per-producer
     flooding. *)
  let ids = O.alive_ids t.ov in
  let hmax =
    List.fold_left
      (fun acc id ->
        match O.state t.ov id with
        | Some s -> max acc (State.top s)
        | None -> acc)
      0 ids
  in
  for h = 0 to hmax do
    List.iter
      (fun id ->
        match O.state t.ov id with
        | Some s when O.is_alive t.ov id && State.top s = h ->
            report_up t id s
        | Some _ | None -> ())
      ids;
    O.run t.ov
  done;
  (* Cross-shard merge step (DESIGN.md §15), only under a forest: each
     covered peer shard root announces its tree's partial to the
     query's merge owner (suppressed within the tolerance, like tree
     partials), then the owner combines its own tree with every
     covered peer's cached partial and finalizes. At one shard the
     root already finalized inside [report_up] — this block never
     runs, keeping [Config.forest = Single] (and [Sharded {shards =
     1}]) bit-identical to the pre-forest system. *)
  if Access.shard_count t.net > 1 then begin
    let qids = sorted_query_ids t.registry in
    List.iter
      (fun qid ->
        let q = Hashtbl.find t.registry qid in
        match merge_owner_root t q with
        | None -> ()
        | Some (osh, oroot) ->
            List.iter
              (fun sh ->
                if sh <> osh then
                  match Access.designated_root_in t.net sh with
                  | None -> ()
                  | Some r -> (
                      let ns = node_state t r in
                      match O.state t.ov r with
                      | Some s when Hashtbl.mem ns.queries qid -> (
                          let c = combined ns s qid in
                          match Hashtbl.find_opt ns.merge_sent qid with
                          | Some (prev_root, prev)
                            when Node_id.equal prev_root oroot
                                 && Aggregate.delta prev c <= q.Query.q_tct
                            ->
                              Tele.record_agg_suppressed (tele t)
                          | Some _ | None ->
                              Hashtbl.replace ns.merge_sent qid (oroot, c);
                              Tele.record_agg_merge (tele t);
                              Engine.inject t.net.Access.engine ~dst:oroot
                                (Msg.Agg_merge
                                   { query_id = qid; epoch = t.epoch;
                                     shard = sh; partial = c }))
                      | Some _ | None -> ()))
              (coverage t q))
      qids;
    O.run t.ov;
    List.iter
      (fun qid ->
        let q = Hashtbl.find t.registry qid in
        match merge_owner_root t q with
        | None -> ()
        | Some (osh, oroot) -> (
            let ns = node_state t oroot in
            match O.state t.ov oroot with
            | Some s when Hashtbl.mem ns.queries qid ->
                let acc = ref (combined ns s qid) in
                List.iter
                  (fun sh ->
                    if sh <> osh then
                      match Hashtbl.find_opt ns.merge_rx (qid, sh) with
                      | Some (_, part) -> acc := Aggregate.merge !acc part
                      | None -> ())
                  (coverage t q);
                Engine.inject t.net.Access.engine ~dst:q.Query.q_owner
                  (Msg.Agg_result
                     { query_id = qid; epoch = t.epoch;
                       value = Aggregate.finalize q.Query.q_fn !acc })
            | Some _ | None -> ()))
      qids;
    O.run t.ov
  end;
  (* next epoch starts its leaf folds from scratch *)
  Node_id.Table.iter (fun _ ns -> Hashtbl.reset ns.pending) t.nodes;
  Tele.end_agg_epoch (tele t)

(* {2 Standing-query registration and results} *)

let register t ?(tct = 0.0) ~owner ~rect fn =
  let qid = t.next_query in
  t.next_query <- qid + 1;
  let q =
    { Query.query_id = qid; q_rect = rect; q_fn = fn; q_tct = tct;
      q_owner = owner }
  in
  Hashtbl.replace t.registry qid q;
  (* Fan the subscription out: at one shard the designated root (the
     pre-forest path, bit-identical under [Single]); under a forest
     every covered shard's root — the dual of the publish fan-out —
     falling back to the global root when no covered shard is rooted
     (it then finalizes the identity partial, DESIGN.md §15). *)
  let targets =
    if Access.shard_count t.net = 1 then
      match Access.designated_root t.net with Some r -> [ r ] | None -> []
    else
      match
        List.filter_map
          (fun sh -> Access.designated_root_in t.net sh)
          (coverage t q)
      with
      | [] -> (
          match Access.designated_root t.net with Some r -> [ r ] | None -> [])
      | roots -> roots
  in
  List.iter
    (fun root ->
      Engine.inject t.net.Access.engine ~dst:root
        (Msg.Agg_subscribe { query = q; hops = 0 }))
    targets;
  if targets <> [] then O.run t.ov;
  qid

let query t qid = Hashtbl.find_opt t.registry qid
let queries t = List.map (Hashtbl.find t.registry) (sorted_query_ids t.registry)
let result t qid = Hashtbl.find_opt t.results qid

(* {2 Brute-force oracle} *)

let oracle t ~epoch qid =
  if epoch <> t.epoch then
    invalid_arg
      (Printf.sprintf "Agg.Runtime.oracle: epoch %d is not the current %d"
         epoch t.epoch);
  match Hashtbl.find_opt t.registry qid with
  | None -> None
  | Some q ->
      let acc =
        List.fold_left
          (fun acc (p, v) ->
            if Query.matches q p then Aggregate.merge acc (Aggregate.of_value v)
            else acc)
          Aggregate.identity t.log
      in
      Some (Aggregate.finalize q.Query.q_fn acc)

(* {2 The Agg_repair pass} *)

(* Reconcile the soft state with the tree the CHECK_* modules just
   repaired. Shared-state flavor, like the repair modules themselves:
   the pass reads live structural state directly and prunes/patches
   the aggregation tables. *)
let repair t =
  let ov = t.ov in
  (* Forget crashed and departed processes' tables outright. *)
  let dead =
    Node_id.Table.fold
      (fun id _ acc -> if O.is_alive ov id then acc else id :: acc)
      t.nodes []
  in
  List.iter (fun id -> Node_id.Table.remove t.nodes id) dead;
  O.iter_states ov (fun id s ->
      match Node_id.Table.find_opt t.nodes id with
      | None -> ()
      | Some ns ->
          (* rx entries whose sender is no longer in any children set
             here are orphans of a role move or a departure. *)
          let is_child c =
            let found = ref false in
            for l = 1 to State.top s do
              match State.level s l with
              | Some lvl ->
                  if Node_id.Set.mem c lvl.State.children then found := true
              | None -> ()
            done;
            !found
          in
          let orphans =
            Hashtbl.fold
              (fun ((_, c) as key) _ acc ->
                if is_child c then acc else key :: acc)
              ns.rx []
          in
          List.iter
            (fun key ->
              Hashtbl.remove ns.rx key;
              Tele.record_agg_stale (tele t))
            orphans;
          (* Reconcile the suppression reference: after an
             adjust_parent cascade (new parent) or a lost report (the
             parent never cached what we recorded as sent), clear it so
             the next epoch re-pulls the full partial. *)
          let top = State.top s in
          let invalid =
            Hashtbl.fold
              (fun qid (parent, part) acc ->
                let stale =
                  if State.is_root s top then true
                  else
                    let cur = (State.level_exn s top).State.parent in
                    (not (Node_id.equal cur parent))
                    ||
                    match Node_id.Table.find_opt t.nodes parent with
                    | None -> true
                    | Some pns -> (
                        match Hashtbl.find_opt pns.rx (qid, id) with
                        | Some (_, cached) ->
                            not (Aggregate.equal cached part)
                        | None -> true)
                in
                if stale then qid :: acc else acc)
              ns.sent []
          in
          List.iter (fun qid -> Hashtbl.remove ns.sent qid) invalid);
  (* Merge-plane reconciliation (DESIGN.md §15), forest only: purge
     cached cross-shard partials from any process that is not the
     query's current merge owner (a root election moved the role, or
     the coverage key is nonsense) or whose shard has no root left
     (nobody remains to re-announce, so the cache would replay departed
     producers' readings forever), and drop suppression references
     whose owner root changed or whose partial the owner no longer
     caches — the next epoch re-announces the full partial instead of
     silently under- or double-counting. *)
  (if Access.shard_count t.net > 1 then
     let owner_of qid =
       match Hashtbl.find_opt t.registry qid with
       | None -> None
       | Some q -> merge_owner_root t q
     in
     O.iter_states ov (fun id _s ->
         match Node_id.Table.find_opt t.nodes id with
         | None -> ()
         | Some ns ->
             let my_shard = Access.home_of t.net id in
             let misplaced =
               Hashtbl.fold
                 (fun ((qid, sh) as key) _ acc ->
                   let keep =
                     match owner_of qid with
                     | Some (osh, oroot) ->
                         Node_id.equal oroot id && sh <> osh
                         && (match Hashtbl.find_opt t.registry qid with
                            | Some q -> List.mem sh (coverage t q)
                            | None -> false)
                         && Access.designated_root_in t.net sh <> None
                     | None -> false
                   in
                   if keep then acc else key :: acc)
                 ns.merge_rx []
             in
             List.iter
               (fun key ->
                 Hashtbl.remove ns.merge_rx key;
                 Tele.record_agg_stale (tele t))
               misplaced;
             let invalid =
               Hashtbl.fold
                 (fun qid (oroot, part) acc ->
                   let stale =
                     (* only a shard's current designated root reports
                        cross-shard *)
                     (match Access.designated_root_in t.net my_shard with
                     | Some r when Node_id.equal r id -> false
                     | Some _ | None -> true)
                     ||
                     match owner_of qid with
                     | Some (_, cur) when Node_id.equal cur oroot -> (
                         match Node_id.Table.find_opt t.nodes oroot with
                         | None -> true
                         | Some ons -> (
                             match
                               Hashtbl.find_opt ons.merge_rx (qid, my_shard)
                             with
                             | Some (_, cached) ->
                                 not (Aggregate.equal cached part)
                             | None -> true))
                     | Some _ | None -> true
                   in
                   if stale then qid :: acc else acc)
                 ns.merge_sent []
             in
             List.iter (fun qid -> Hashtbl.remove ns.merge_sent qid) invalid));
  (* Query anti-entropy: lost Agg_subscribe floods and freshly joined
     processes converge by copying queries down the repaired tree —
     the client registry seeds the roots, parents seed their children
     (descending top order makes one pass propagate a query down an
     entire path). A held definition that differs from the source's is
     replaced too, so a wrong one under a live id (a forged or
     corrupted subscribe) heals like a missing one. At one shard the
     seed target is the designated root, verbatim the pre-forest path;
     under a forest every covered shard's root (or the global fallback
     when none is rooted) — the same targets [register] fans out to. *)
  (if Access.shard_count t.net = 1 then
     match Access.designated_root t.net with
     | Some root when O.is_alive ov root ->
         let rns = node_state t root in
         Hashtbl.iter
           (fun qid q ->
             if Hashtbl.find_opt rns.queries qid <> Some q then
               Hashtbl.replace rns.queries qid q)
           t.registry
     | Some _ | None -> ()
   else
     List.iter
       (fun qid ->
         let q = Hashtbl.find t.registry qid in
         let roots =
           match
             List.filter_map
               (fun sh -> Access.designated_root_in t.net sh)
               (coverage t q)
           with
           | [] -> (
               match Access.designated_root t.net with
               | Some r -> [ r ]
               | None -> [])
           | roots -> roots
         in
         List.iter
           (fun root ->
             if O.is_alive ov root then
               let rns = node_state t root in
               if Hashtbl.find_opt rns.queries qid <> Some q then
                 Hashtbl.replace rns.queries qid q)
           roots)
       (sorted_query_ids t.registry));
  let by_top =
    List.sort
      (fun (_, a) (_, b) -> compare (State.top b) (State.top a))
      (List.filter_map
         (fun id ->
           match O.state ov id with Some s -> Some (id, s) | None -> None)
         (O.alive_ids ov))
  in
  List.iter
    (fun (id, s) ->
      match Node_id.Table.find_opt t.nodes id with
      | None -> ()
      | Some ns ->
          for l = 1 to State.top s do
            match State.level s l with
            | Some lvl ->
                Node_id.Set.iter
                  (fun c ->
                    if (not (Node_id.equal c id)) && O.is_alive ov c then begin
                      let cns = node_state t c in
                      Hashtbl.iter
                        (fun qid q ->
                          if Hashtbl.find_opt cns.queries qid <> Some q then
                            Hashtbl.replace cns.queries qid q)
                        ns.queries
                    end)
                  lvl.State.children
            | None -> ()
          done)
    by_top

(* {2 Lifecycle} *)

let attach ov =
  let t =
    {
      ov;
      net = O.access ov;
      nodes = Node_id.Table.create 64;
      registry = Hashtbl.create 8;
      results = Hashtbl.create 8;
      log = [];
      readings = [];
      epoch = 0;
      next_query = 0;
    }
  in
  O.set_agg_handler ov (Some (fun ctx s msg -> handle t ctx s msg));
  O.set_agg_repair ov (Some (fun () -> repair t));
  t

let detach t =
  O.set_agg_handler t.ov None;
  O.set_agg_repair t.ov None

(* {2 Test hooks} *)

let debug_known_queries t id =
  match Node_id.Table.find_opt t.nodes id with
  | None -> []
  | Some ns -> sorted_query_ids ns.queries

let debug_rx t id =
  match Node_id.Table.find_opt t.nodes id with
  | None -> []
  | Some ns ->
      List.sort compare
        (Hashtbl.fold
           (fun (qid, c) (e, part) acc -> (qid, c, e, part) :: acc)
           ns.rx [])

let debug_sent t id =
  match Node_id.Table.find_opt t.nodes id with
  | None -> []
  | Some ns ->
      List.sort compare
        (Hashtbl.fold
           (fun qid (parent, part) acc -> (qid, parent, part) :: acc)
           ns.sent [])
