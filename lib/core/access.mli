(** State access for the overlay: the one place neighbor state is
    observed.

    [net] is the overlay's shared runtime (engine, states, telemetry);
    {!t} is a {e view} — a node observing its neighbors either
    directly (shared-state model, counted probes) or through this
    round's QUERY/REPORT snapshots (message-passing model). The
    CHECK_* repair modules in {!Repair} are written once against a
    view, so the two stabilization modes share a single protocol
    body.

    This module is internal to the library: the record is exposed so
    the sibling modules ({!Repair}, {!Membership}, {!Dissemination},
    {!Election}, {!Overlay}) can share it without a facade of
    accessors. External consumers go through {!Overlay}. *)

type store
(** The process store in the configured {!Config.layout}: the seed's
    hashtable, or a flat array indexed by process id (DESIGN.md §11).
    Abstract — all access goes through {!state},
    {!add_state} and the iteration helpers, so the rest of the library
    is layout-agnostic. *)

type net = {
  cfg : Config.t;
  engine : Message.t Sim.Engine.t;
  states : store;
  rng : Sim.Rng.t;
  snapshots : (Sim.Node_id.t * Sim.Node_id.t, Message.snapshot) Hashtbl.t;
  tele : Telemetry.t;
  mutable marks : int;
  rdv : Rendezvous.t;
  claimants : unit Sim.Node_id.Table.t array;
  mutable filters : Sim.Node_id.t Rtree.Tree.t;
  mutable indexed : int;
  mutable last_join_hops : int;
  mutable executor : Sim.Node_id.t option;
  mutable agg_handler :
    (Message.t Sim.Engine.ctx -> State.t -> Message.t -> unit) option;
  mutable agg_repair : (unit -> unit) option;
  mutable fd_handler :
    (Message.t Sim.Engine.ctx -> State.t -> Message.t -> unit) option;
  mutable fd_round : (unit -> unit) option;
  mutable fd_contact : (Sim.Node_id.t -> Sim.Node_id.t option) option;
}

val default_space : Geometry.Rect.t
(** The rendezvous space {!create} shards when none is given: the
    [0, 100]^2 square every workload generator draws from. *)

val create :
  ?cfg:Config.t ->
  ?transport:Message.t Sim.Transport.t ->
  ?drop_rate:float ->
  ?space:Geometry.Rect.t ->
  seed:int ->
  unit ->
  net
(** [transport] (default [Inproc]) selects how the engine carries
    messages — pass {!Message.Codec.transport} to serialize every
    inter-process hop. Also installs the engine meter feeding
    {!Telemetry}'s per-kind traffic table. [space] (default
    {!default_space}) is the attribute space the rendezvous layer
    partitions under [Config.forest = Sharded]; ignored under
    [Single]. *)

val is_alive : net -> Sim.Node_id.t -> bool

val state : net -> Sim.Node_id.t -> State.t option
(** The process state whether alive or crashed ([None] if never
    spawned, negative included); never counts a probe. Under the flat
    layout this is one bounds-checked array read — no hashing. *)

val add_state : net -> State.t -> unit
(** Register a fresh process in the store (the {!Overlay.join_async}
    insertion path). Entries are never removed: crashed processes'
    state must stay readable ({!Invariant} follows ancestor links
    through dead processes). *)

val read : net -> Sim.Node_id.t -> State.t option
(** Protocol-level read: [None] for crashed processes; counted as a
    remote state probe in {!Telemetry} when the current executor is
    another node. *)

val as_executor : net -> Sim.Node_id.t -> (unit -> 'a) -> 'a
(** Run [f] with the executor set to [id], so its neighbor reads are
    attributed (and counted) as [id]'s remote probes. *)

val confirm_alive : net -> Sim.Node_id.t -> bool
(** Liveness confirmation before committing a multi-party transaction
    — models lock acquisition, not a state read, so it is not counted
    as a probe. *)

val alive_ids : net -> Sim.Node_id.t list
val size : net -> int
val iter_states : net -> (Sim.Node_id.t -> State.t -> unit) -> unit

val filter_candidates : net -> Geometry.Point.t -> Sim.Node_id.t list
(** Every spawned process — alive or crashed — whose filter contains
    the point, in no particular order: the containment half of publish
    ground truth. Liveness is left to the caller ({!read} per
    candidate). Served from an R-tree over every spawned filter that
    is caught up lazily here, from a watermark over the engine's spawn
    range; it needs no membership hooks because filters are constant
    and the store never drops a state (DESIGN.md §4). *)

(** {2 Marking}

    Every write path of the protocol flags the (process, height)
    entries it mutates, feeding both the quiescence test of
    {!Overlay.stabilize} ([marks]) and the root-claimant cache behind
    {!root_claimants_in}. A missed mark leaves no damage unrepaired: every
    round sweeps every entry, and an unmarked illegal tree costs
    {!Overlay.stabilize} one legality check before it escalates
    (DESIGN.md §10). *)

val mark : net -> Sim.Node_id.t -> int -> unit
(** Flag [(p, h)] as possibly in need of repair — add one to [marks]
    unless [h] is negative — and refresh [p]'s entry in its home
    shard's claimant cache. *)

val refresh_claimant : net -> Sim.Node_id.t -> unit
(** Re-derive one process's root-claimant cache entry from its state
    (without queueing repair work). *)

val rescan_claimants : net -> unit
(** Rebuild every shard's claimant cache from scratch over all live
    processes — run at the start of every stabilization round, so
    cache staleness never outlives one round. *)

(** {2 The rendezvous forest} (DESIGN.md §14)

    Which DR-tree of the forest a process belongs to. Under
    [Config.forest = Single] there is exactly one shard (number [0])
    and everything below collapses to the pre-forest behavior, bit
    for bit. *)

val shard_count : net -> int
(** Number of trees in the forest ([1] under [Single]). *)

val home_of : net -> Sim.Node_id.t -> int
(** The shard a process homes on: a pure function of its immutable
    filter through {!Rendezvous.home_shard} — probe-free, RNG-free,
    [0] for never-spawned ids and under [Single]. *)

val shard_roots : net -> Sim.Node_id.t option list
(** Each shard's designated root, by shard number. *)

val intersecting_shards : net -> Geometry.Rect.t -> int list
(** Every shard whose Z-range overlaps the rectangle, through
    {!Rendezvous.intersecting_shards}: the publish/subscribe fan-out
    set, and the coverage of a standing aggregate query (DESIGN.md
    §15). Sorted ascending, duplicate-free, [[0]] under [Single]; a
    pure function of the grid — no probe, no RNG draw. *)

(** {2 Direct neighbor reads} *)

val mbr_of : net -> int -> Sim.Node_id.t -> Geometry.Rect.t option
(** [mbr_of net h id]: the MBR of [id]'s instance at height [h], via
    {!read}. *)

val area_of : net -> int -> Sim.Node_id.t -> float
(** Like {!mbr_of} but an area, [neg_infinity] when unreadable. *)

(** {2 QUERY/REPORT snapshots} *)

val self_snapshot : State.t -> Message.snapshot
(** Serialize a node's own state for a REPORT reply. *)

val store_snapshot : net -> asker:Sim.Node_id.t -> Message.snapshot -> unit
val reset_snapshots : net -> unit

val neighbors_of : State.t -> Sim.Node_id.Set.t
(** Every distinct process this node holds a link to (parents and
    children across all active heights). *)

(** {2 Views} *)

type t
(** A node's observation capability over its neighbors. *)

val direct : net -> State.t -> t
(** Shared-state observation: live neighbor state, counted probes. *)

val snapshot : net -> State.t -> t
(** Message-passing observation: only this round's received REPORTs;
    a neighbor without a report is treated as dead. *)

val self : t -> State.t
val network : t -> net

val member_mbr : t -> int -> Sim.Node_id.t -> Geometry.Rect.t option
(** [member_mbr v h id]: the MBR of [id]'s instance at height [h] as
    observed by this view ([v]'s own state is local in both modes). *)

val member_area : t -> int -> Sim.Node_id.t -> float

val claims_parent : t -> child:Sim.Node_id.t -> h:int -> bool
(** Does [child] hold an instance at height [h] parented to this
    view's node? (CHECK_CHILDREN's keep-test.) *)

val attached_to : t -> parent:Sim.Node_id.t -> h:int -> bool
(** Does this view's node appear in [parent]'s children set at height
    [h]? (CHECK_PARENT's attachment test.) *)

(** {2 Root discovery and the contact oracle} *)

val root_claimants_in : net -> int -> Sim.Node_id.t list
(** Live processes homed on the shard whose topmost instance is its
    own parent, sorted ascending. Served from the shard's claimant
    cache (verified entry by entry, falling back to a full rescan
    when verification empties a populated shard) — O(#claimants)
    instead of the former O(N) scan, which dominated join cost at
    scale (E23). *)

val designated_root_in : net -> int -> Sim.Node_id.t option
(** Among the shard's claimants, the one with the largest top-level
    MBR (Fig. 6), ties broken by id. *)

val designated_root : net -> Sim.Node_id.t option
(** The largest-MBR winner across shard winners: under [Single] the
    pre-forest designated root; under [Sharded] a forest-agnostic
    fallback coordinator (the aggregation attach point,
    diagnostics). *)

val height : net -> int
(** The tallest shard root's top height. *)

val oracle : net -> shard:int -> exclude:Sim.Node_id.t -> Sim.Node_id.t option
(** Get_Contact_Node (§3.2): a process already in the shard's
    structure. *)

val initiate_join :
  net -> joiner:Sim.Node_id.t -> mbr:Geometry.Rect.t -> height:int -> unit
(** Route a (re-)join through a contact node: the failure detector's
    fallback ring when [fd_contact] is installed and returns a live
    contact distinct from the joiner, the global oracle otherwise —
    so under [Config.detector = Heartbeat] a falsely evicted process
    re-enters through peers it already monitors, with no global
    knowledge involved (DESIGN.md §13). *)
