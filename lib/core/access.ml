module Rect = Geometry.Rect
module Node_id = Sim.Node_id
module Engine = Sim.Engine

(* The process store, in the configured layout (DESIGN.md §11).
   [S_hashed] is the seed realization. [S_flat] indexes a plain array
   by intern slot: the intern table assigns each process a stable slot
   on insertion, so [state] is two array reads and no hashing — the
   difference that carries E23 to N=65536+. Neither layout ever
   removes an entry: a crashed process's state must stay readable
   ({!Invariant} follows ancestor links through dead processes), so
   the overlay inserts but never releases. *)
type store =
  | S_hashed of State.t Node_id.Table.t
  | S_flat of { intern : Intern.t; mutable arr : State.t option array }

type net = {
  cfg : Config.t;
  engine : Message.t Engine.t;
  states : store;
  rng : Sim.Rng.t;
  snapshots : (Node_id.t * Node_id.t, Message.snapshot) Hashtbl.t;
      (* (asker, responder) -> responder's state as reported this
         message-passing stabilization round *)
  tele : Telemetry.t;
  mutable marks : int;
      (* (process, height) marks since the last stabilization round
         began; every write path marks through {!mark} below *)
  rdv : Rendezvous.t;
      (* the rendezvous layer (DESIGN.md §14): which tree of the
         forest a process homes on. [Single] (the default) is the
         identity mapper — one shard, shard 0 *)
  claimants : unit Node_id.Table.t array;
      (* cached root-claimant set, one table per shard, maintained by
         {!mark} (a process's claim can only change when its state is
         written, and every write path marks): turns the O(N)-per-join
         root scan of {!root_claimants_in} into an O(#claimants)
         lookup. A process's home shard is a pure function of its
         immutable filter, so an entry never migrates between tables.
         Entries are re-verified on read; silent corruption can leave
         the cache stale, so every round rescans and an empty verified
         set falls back to a full rescan of the shard. *)
  mutable filters : Node_id.t Rtree.Tree.t;
      (* the ground-truth filter index behind {!filter_candidates}:
         the filter of every process spawned below the [indexed]
         watermark, alive or crashed *)
  mutable indexed : int;
  mutable last_join_hops : int;
  mutable executor : Node_id.t option;
      (* the node whose module body is currently executing; reads of
         other nodes' states count as state probes *)
  mutable agg_handler :
    (Message.t Engine.ctx -> State.t -> Message.t -> unit) option;
      (* installed by Agg.Runtime.attach; receives the Agg_* messages
         Overlay dispatches, so lib/core stays free of a dependency on
         the aggregation subsystem *)
  mutable agg_repair : (unit -> unit) option;
      (* the Agg_repair pass, co-scheduled with the CHECK_* rounds *)
  mutable fd_handler :
    (Message.t Engine.ctx -> State.t -> Message.t -> unit) option;
      (* installed by Fd.Runtime.attach (Config.detector = Heartbeat);
         receives the Heartbeat/Suspect messages Overlay dispatches —
         same decoupling as [agg_handler], so lib/core stays free of a
         dependency on the failure-detection subsystem *)
  mutable fd_round : (unit -> unit) option;
      (* the detector's periodic tick, run at the head of every
         stabilization round so timeout verdicts are repaired the same
         round *)
  mutable fd_contact : (Node_id.t -> Node_id.t option) option;
      (* fallback-contact lookup: when installed, {!initiate_join}
         asks the detector's ring for a contact before falling back to
         the global oracle — a falsely evicted process re-attaches
         through peers it already knows *)
}

(* The default rendezvous space, matching [Workload.Space.default]
   (lib/core cannot depend on lib/workload): the [0, 100]^2 square
   every workload generator and the fuzzer draw from. Only consulted
   under [Config.forest = Sharded]; pass [?space] to shard a different
   domain. *)
let default_space =
  Rect.make2 ~x0:0.0 ~y0:0.0 ~x1:100.0 ~y1:100.0

let create ?(cfg = Config.default) ?transport ?drop_rate
    ?(space = default_space) ~seed () =
  let rdv = Rendezvous.create ~forest:cfg.Config.forest ~space in
  let states =
    match cfg.Config.layout with
    | Config.Hashed -> S_hashed (Node_id.Table.create 256)
    | Config.Flat ->
        S_flat { intern = Intern.create ~capacity:256 (); arr = Array.make 256 None }
  in
  let net =
    {
      cfg;
      engine = Engine.create ?transport ?drop_rate ~seed ();
      states;
      rng = Sim.Rng.make (seed lxor 0x7ee1);
      snapshots = Hashtbl.create 256;
      tele = Telemetry.create ();
      marks = 0;
      rdv;
      claimants =
        Array.init (Rendezvous.shards rdv) (fun _ -> Node_id.Table.create 8);
      filters = Rtree.Tree.create Rtree.Tree.default_config;
      indexed = 0;
      last_join_hops = 0;
      executor = None;
      agg_handler = None;
      agg_repair = None;
      fd_handler = None;
      fd_round = None;
      fd_contact = None;
    }
  in
  (* Per-message-kind traffic accounting: the engine is polymorphic in
     the message type, so the kind-indexed byte counters live here. *)
  Engine.set_meter net.engine
    (Some
       (fun dir msg bytes ->
         Telemetry.record_traffic net.tele dir ~code:(Message.kind_code msg)
           ~bytes));
  net

let is_alive net id = Engine.is_alive net.engine id

let state net id =
  match net.states with
  | S_hashed tbl -> Node_id.Table.find_opt tbl id
  | S_flat f -> (
      match Intern.find f.intern id with
      | Some slot -> f.arr.(slot)
      | None -> None)

(* The one insertion path: {!Overlay.join_async} registers every fresh
   process here. Under the flat layout this is where the process gets
   its intern slot. *)
let add_state net s =
  let id = State.id s in
  match net.states with
  | S_hashed tbl -> Node_id.Table.replace tbl id s
  | S_flat f ->
      let slot = Intern.intern f.intern id in
      let cap = Array.length f.arr in
      if slot >= cap then begin
        let ncap = max (slot + 1) (2 * cap) in
        let arr = Array.make ncap None in
        Array.blit f.arr 0 arr 0 cap;
        f.arr <- arr
      end;
      f.arr.(slot) <- Some s

(* Protocol-level read: a crashed process's memory is unreachable.
   When a module body executing at another node reads this state, the
   access is a remote probe — in a purely message-passing
   implementation it would cost a query/reply round trip. We count
   these so the experiments can report the state-model's hidden
   message complexity (see E7). *)
let read net id =
  (match net.executor with
  | Some ex when not (Node_id.equal ex id) -> Telemetry.record_probe net.tele
  | Some _ | None -> ());
  if is_alive net id then state net id else None

let as_executor net id f =
  let saved = net.executor in
  net.executor <- Some id;
  let result = f () in
  net.executor <- saved;
  result

(* Liveness confirmation before committing a multi-party transaction
   (role exchange, compaction): the transaction-lock acquisition of a
   real implementation, not a state read, so it is not counted as a
   probe. *)
let confirm_alive net id = is_alive net id && state net id <> None

let alive_ids net =
  List.filter (fun id -> state net id <> None) (Engine.alive_nodes net.engine)

let size net = List.length (alive_ids net)

(* {2 The ground-truth filter index}

   Publish accounting needs the exact set of live processes whose
   filter contains the event. The index answers the containment half:
   it holds the filter of every spawned process and is caught up from
   the [indexed] watermark over the engine's dense spawn range (the
   range {!Engine.alive_nodes} enumerates) at each query — one STR
   bulk load when the backlog is at least the indexed size (a fresh
   build), single inserts otherwise (a trickle of joins). Liveness is
   the caller's per-candidate test, so no departure, crash, conviction
   or rejoin path needs a hook: a filter never changes and a state is
   never dropped, so an insert-only index stays complete. *)
let filter_candidates net point =
  let spawned = Engine.spawned_count net.engine in
  if net.indexed < spawned then begin
    let fresh = ref [] in
    for id = spawned - 1 downto net.indexed do
      match state net id with
      | Some s -> fresh := (State.filter s, id) :: !fresh
      | None -> ()
    done;
    if spawned - net.indexed >= Rtree.Tree.size net.filters then
      net.filters <-
        Rtree.Tree.bulk_load Rtree.Tree.default_config
          (List.rev_append (Rtree.Tree.entries net.filters) !fresh)
    else List.iter (fun (r, id) -> Rtree.Tree.insert net.filters r id) !fresh;
    net.indexed <- spawned
  end;
  Rtree.Tree.search_point net.filters point

(* {2 Marking and the root-claimant cache}

   [mark] is THE write-path hook: every mutation of a (process,
   height) entry flags it here. The round driver only asks whether
   anything was marked since the last round began (the quiescence
   test of {!Overlay.stabilize}), so a mark is a count; and since a
   process's root claim is a function of its own state, the same hook
   keeps the claimant cache current. *)

(* The shard a process homes on: a pure function of its immutable
   filter rectangle through the rendezvous mapper — probe-free (the
   membership log keeps crashed state readable), RNG-free, and [0] for
   every process under [Single]. *)
let home_of net id =
  match state net id with
  | Some s -> Rendezvous.home_shard net.rdv (State.filter s)
  | None -> 0

let shard_count net = Array.length net.claimants

(* The fan-out set of a rectangle, and the merge-owner rule of the
   aggregation plane (DESIGN.md §15): both pure functions of the grid
   — no probe, no RNG draw — so every process, layout and domain
   count agrees on them without coordination. [intersecting_shards]
   is never empty (a dimension mismatch returns every shard), so the
   owner is total. *)
let intersecting_shards net r = Rendezvous.intersecting_shards net.rdv r
let merge_owner_shard net r = List.hd (intersecting_shards net r)

let claimant_table net id = net.claimants.(home_of net id)

let refresh_claimant net id =
  match state net id with
  | Some s when is_alive net id && State.is_root s (State.top s) ->
      Node_id.Table.replace (claimant_table net id) id ()
  | Some _ | None -> Node_id.Table.remove (claimant_table net id) id

(* Negative heights arrive from call sites computing [h - 1] at a
   leaf; they denote no instance, so they are not counted. *)
let mark net p h =
  if h >= 0 then net.marks <- net.marks + 1;
  refresh_claimant net p

let rescan_claimants_in net shard =
  Node_id.Table.reset net.claimants.(shard);
  List.iter
    (fun id ->
      match state net id with
      | Some s
        when State.is_root s (State.top s) && home_of net id = shard ->
          Node_id.Table.replace net.claimants.(shard) id ()
      | Some _ | None -> ())
    (alive_ids net)

let rescan_claimants net =
  Array.iter Node_id.Table.reset net.claimants;
  List.iter
    (fun id ->
      match state net id with
      | Some s when State.is_root s (State.top s) ->
          Node_id.Table.replace (claimant_table net id) id ()
      | Some _ | None -> ())
    (alive_ids net)

let iter_states net f =
  List.iter
    (fun id -> match state net id with Some s -> f id s | None -> ())
    (alive_ids net)

(* {2 Direct neighbor reads} *)

let mbr_of net h id =
  match read net id with Some s -> State.mbr_at s h | None -> None

let area_of net h id =
  match mbr_of net h id with Some r -> Rect.area r | None -> neg_infinity

(* {2 QUERY/REPORT snapshots} *)

let self_snapshot sp =
  let levels = ref [] in
  for h = State.top sp downto 0 do
    match State.level sp h with
    | Some l ->
        levels :=
          { Message.height = h; mbr = l.State.mbr; parent = l.State.parent;
            children = l.State.children }
          :: !levels
    | None -> ()
  done;
  { Message.responder = State.id sp; top = State.top sp;
    filter = State.filter sp; levels = !levels }

let store_snapshot net ~asker snapshot =
  Hashtbl.replace net.snapshots (asker, snapshot.Message.responder) snapshot

let snapshot_of net ~asker ~responder =
  Hashtbl.find_opt net.snapshots (asker, responder)

let snapshot_level snap h =
  List.find_opt (fun l -> l.Message.height = h) snap.Message.levels

let snapshot_mbr net ~asker h id =
  match snapshot_of net ~asker ~responder:id with
  | Some snap -> (
      match snapshot_level snap h with
      | Some l -> Some l.Message.mbr
      | None -> None)
  | None -> None

let reset_snapshots net = Hashtbl.reset net.snapshots

(* Every distinct process this node holds a link to. *)
let neighbors_of sp =
  let p = State.id sp in
  let acc = ref Node_id.Set.empty in
  for h = 0 to State.top sp do
    match State.level sp h with
    | Some l ->
        if not (Node_id.equal l.State.parent p) then
          acc := Node_id.Set.add l.State.parent !acc;
        Node_id.Set.iter
          (fun c ->
            if not (Node_id.equal c p) then acc := Node_id.Set.add c !acc)
          l.State.children
    | None -> ()
  done;
  !acc

(* {2 Views: one neighbor-observation effect, two implementations}

   The CHECK_* repair modules are written once against a view. A
   [Direct] view reads live neighbor state (counted probes, the
   paper's shared-state presentation); a [Snapshot] view sees only
   what this round's QUERY/REPORT exchange captured, so detection
   tolerates exactly the information a report carries. *)

type mode = Direct | Snapshot

type t = { net : net; self : State.t; mode : mode }

let direct net self = { net; self; mode = Direct }
let snapshot net self = { net; self; mode = Snapshot }
let self v = v.self
let network v = v.net

(* The holder's own state is local in both modes. *)
let member_mbr v h id =
  if Node_id.equal id (State.id v.self) then State.mbr_at v.self h
  else
    match v.mode with
    | Direct -> (
        match read v.net id with
        | Some s -> State.mbr_at s h
        | None -> None)
    | Snapshot -> snapshot_mbr v.net ~asker:(State.id v.self) h id

let member_area v h id =
  match member_mbr v h id with Some r -> Rect.area r | None -> neg_infinity

(* Does [child] hold an instance at height [h] whose parent pointer
   names this view's process? (The CHECK_CHILDREN keep-test.) *)
let claims_parent v ~child ~h =
  let p = State.id v.self in
  match v.mode with
  | Direct -> (
      match read v.net child with
      | Some sc ->
          State.is_active sc h
          && Node_id.equal (State.level_exn sc h).State.parent p
      | None -> false)
  | Snapshot -> (
      match snapshot_of v.net ~asker:p ~responder:child with
      | Some snap -> (
          match snapshot_level snap h with
          | Some sl -> Node_id.equal sl.Message.parent p
          | None -> false)
      | None -> false (* no report: dead or unreachable *))

(* Does this view's process appear in [parent]'s children set at
   height [h]? (The CHECK_PARENT attachment test.) *)
let attached_to v ~parent ~h =
  let p = State.id v.self in
  match v.mode with
  | Direct -> (
      match read v.net parent with
      | Some spar ->
          State.is_active spar h
          && Node_id.Set.mem p (State.level_exn spar h).State.children
      | None -> false)
  | Snapshot -> (
      match snapshot_of v.net ~asker:p ~responder:parent with
      | Some snap -> (
          match snapshot_level snap h with
          | Some sl -> Node_id.Set.mem p sl.Message.children
          | None -> false)
      | None -> false)

(* {2 Root discovery and the contact oracle}

   All per-shard: under [Single] there is exactly one shard and every
   body below collapses to the pre-forest code — the same list
   traversals, the same RNG draws, the same fold orders — which is
   what the forest-differential harness holds it to. *)

(* A shard's live population. At one shard this is [size net] (every
   process homes on shard 0), so the cache-rescue condition below
   matches the pre-forest one exactly. *)
let shard_size net shard =
  List.length (List.filter (fun id -> home_of net id = shard) (alive_ids net))

(* Verified read of a shard's claimant cache: entries that no longer
   claim (displaced, crashed) are dropped; if verification leaves
   nothing in a populated shard — silent corruption erased the cached
   claim, or the cache went stale wholesale — a full rescan of the
   shard restores the ground truth. Sorted ascending, like the
   [alive_ids] scan it replaces. *)
let root_claimants_in net shard =
  let tbl = net.claimants.(shard) in
  let live = ref [] and stale = ref [] in
  Node_id.Table.iter
    (fun id () ->
      match read net id with
      | Some s when State.is_root s (State.top s) -> live := id :: !live
      | Some _ | None -> stale := id :: !stale)
    tbl;
  List.iter (fun id -> Node_id.Table.remove tbl id) !stale;
  let live =
    if !live = [] && shard_size net shard > 0 then begin
      rescan_claimants_in net shard;
      Node_id.Table.fold (fun id () acc -> id :: acc) tbl []
    end
    else !live
  in
  List.sort Node_id.compare live

(* Every claimant across the forest, ascending (the pre-forest
   [root_claimants] — {!Invariant} and diagnostics still want the
   global view). *)
let root_claimants net =
  List.sort Node_id.compare
    (List.concat
       (List.init (shard_count net) (fun s -> root_claimants_in net s)))

let claimant_score net id =
  match read net id with
  | Some s -> (
      match State.mbr_at s (State.top s) with
      | Some r -> Rect.area r
      | None -> neg_infinity)
  | None -> neg_infinity

let best_claimant net = function
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun best cand ->
             let sb = claimant_score net best
             and sc = claimant_score net cand in
             if sc > sb then cand else best)
           first rest)

(* Among a shard's claimants, the designated root is the one with the
   largest top-level MBR (the root-election principle of Fig. 6), ties
   broken by id (the fold keeps the first, and claimants are sorted
   ascending). *)
let designated_root_in net shard =
  best_claimant net (root_claimants_in net shard)

(* The globally designated root: the largest-MBR winner across shard
   winners — under [Single] exactly the pre-forest [designated_root],
   under [Sharded] the fallback coordinator for forest-agnostic
   consumers (the aggregation attach point, diagnostics). *)
let designated_root net =
  let winners =
    List.filter_map
      (fun s -> designated_root_in net s)
      (List.init (shard_count net) Fun.id)
  in
  best_claimant net winners

let shard_roots net =
  List.init (shard_count net) (fun s -> designated_root_in net s)

let height_in net shard =
  match designated_root_in net shard with
  | None -> -1
  | Some id -> ( match read net id with Some s -> State.top s | None -> -1)

(* The forest's height: the tallest shard root. One shard = the
   pre-forest height. *)
let height net =
  let rec go best s =
    if s >= shard_count net then best
    else go (max best (height_in net s)) (s + 1)
  in
  go (-1) 0

(* Get_Contact_Node (§3.2), scoped to a shard: a process already in
   that shard's structure. At one shard the filters keep everything,
   so the list the root oracle falls back on — and the single RNG draw
   the random oracle makes, and the list it draws from — are exactly
   the pre-forest ones. *)
let oracle net ~shard ~exclude =
  let in_shard id = id <> exclude && home_of net id = shard in
  match net.cfg.Config.oracle with
  | Config.Root_oracle -> (
      match designated_root_in net shard with
      | Some r when not (Node_id.equal r exclude) -> Some r
      | Some _ | None -> (
          match List.filter in_shard (alive_ids net) with
          | [] -> None
          | ids -> Some (List.hd ids)))
  | Config.Random_oracle -> (
      match List.filter in_shard (alive_ids net) with
      | [] -> None
      | ids -> Some (Sim.Rng.pick net.rng ids))

(* Route a (re-)join through a contact: the detector's fallback ring
   when one is installed and has a live contact for this joiner, the
   shard's oracle otherwise. The shard is the {e joiner's home} — a
   function of its immutable filter, not of the (possibly subtree-
   level) [mbr] being re-attached — so every re-entry lands back in
   the tree the process belongs to. A ring contact homed on another
   shard is rejected for the same reason (at one shard the guard is
   vacuous: both homes are 0). *)
let initiate_join net ~joiner ~mbr ~height =
  let shard = home_of net joiner in
  let contact =
    match net.fd_contact with
    | Some lookup -> (
        match lookup joiner with
        | Some c
          when is_alive net c
               && (not (Node_id.equal c joiner))
               && home_of net c = shard ->
            Some c
        | Some _ | None -> oracle net ~shard ~exclude:joiner)
    | None -> oracle net ~shard ~exclude:joiner
  in
  match contact with
  | None -> ()
  | Some contact ->
      Engine.inject net.engine ~dst:contact
        (Message.Join { joiner; mbr; height; phase = `Up; hops = 0 })
