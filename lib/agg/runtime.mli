(** Continuous in-network aggregation over the DR-tree (TAG/TiNA
    style).

    A runtime attaches to an overlay through {!Drtree.Overlay}'s
    aggregation hooks; clients register standing queries
    ({!Aggregate.fn} over a rectangle) and feed per-process readings.
    Each {!run_epoch} folds the epoch's readings at the leaves, then
    climbs the tree in height waves: every process combines its own
    fold with its children's cached partials and reports one merged
    partial to the parent of its topmost instance — O(tree edges)
    messages per query per epoch instead of one message per producer.
    At one shard the designated root then finalizes the value to the
    query owner. Under [Config.forest = Sharded] each covered shard
    (every shard whose Z-range intersects the query rectangle, the
    dual of the publish fan-out) climbs to its own root, peer shard
    roots announce their partials to the query's {e merge owner} — the
    root of the lowest-numbered covered shard, a pure function of the
    grid — in one [Agg_merge] message each, and the owner combines and
    finalizes (DESIGN.md §15). At one shard no merge message is ever
    sent, keeping [Single] bit-identical to the pre-forest system.

    A report is {e suppressed} when it is within the query's temporal
    coherency tolerance [tct] of what the parent already caches
    (component-wise {!Aggregate.delta}); the parent keeps using the
    cached partial, which bounds the error each edge contributes. With
    [tct = 0] only bit-identical partials are suppressed, so results
    stay exact whenever merging itself is (integer-valued readings).

    All caches are soft state: {!repair} — installed as the overlay's
    [Agg_repair] hook, co-scheduled with the five CHECK_* modules —
    discards partials from processes that left the children set,
    invalidates suppression references after [adjust_parent] role
    moves or lost reports (forcing a re-pull), and anti-entropies the
    query table down the repaired tree. The merge plane gets the same
    treatment: cached cross-shard partials are purged from any process
    that is not the query's current merge owner (root elections move
    the role), and a shard root's cross-shard suppression reference is
    dropped when the owner root changed or no longer caches the
    recorded partial, so the next epoch re-announces instead of under-
    or double-counting. Correctness under churn and loss is judged
    against {!oracle}, a brute-force recomputation from the current
    epoch's raw readings. *)

type t

val attach : Drtree.Overlay.t -> t
(** Install the message handler and repair pass on the overlay. One
    runtime per overlay. *)

val detach : t -> unit
val overlay : t -> Drtree.Overlay.t

val epoch : t -> int
(** Epochs completed so far (readings are evaluated at epoch
    [epoch t + 1]). *)

val register :
  t ->
  ?tct:float ->
  owner:Sim.Node_id.t ->
  rect:Geometry.Rect.t ->
  Aggregate.fn ->
  int
(** Register a standing query (returns its id) and flood the
    subscription from the designated root — from every covered shard's
    root under a forest (falling back to the global root when no
    covered shard is rooted). [owner] (a live process) receives one
    [Agg_result] per epoch. [tct] defaults to [0]. Lost subscriptions
    converge through {!repair}'s anti-entropy. *)

val query : t -> int -> Query.t option
val queries : t -> Query.t list

val inject : t -> from:Sim.Node_id.t -> Geometry.Point.t -> float -> unit
(** Record one reading (an event point plus the aggregated value)
    produced at [from], to be folded by the next {!run_epoch}.
    Ignored for dead processes. *)

val run_epoch : t -> unit
(** Evaluate one epoch over the readings injected since the last one:
    leaf folds, height-wave climb with suppression, root finalization
    (preceded, under a forest, by the cross-shard merge step). Drains
    the engine between waves; brackets the epoch's telemetry
    ({!Drtree.Telemetry.agg_epochs}). *)

val result : t -> int -> (int * float option) option
(** Freshest delivered result for a query: [(epoch, value)]. [None]
    until a first [Agg_result] arrives; the value itself is [None] for
    MIN/MAX/AVG over an empty match set. *)

val oracle : t -> epoch:int -> int -> float option option
(** Ground truth: the aggregate recomputed by brute force over the raw
    readings of [epoch], which must be the current one ({!epoch}): the
    runtime keeps only the last epoch's readings. [None] if the query
    id is unknown, [Some v] with [v] shaped like a result value
    otherwise.
    @raise Invalid_argument if [epoch <> epoch t]. *)

val repair : t -> unit
(** The Agg_repair pass (normally invoked by the overlay's
    stabilization rounds; exposed for white-box tests). *)

(** {2 Test hooks} *)

val debug_known_queries : t -> Sim.Node_id.t -> int list
(** Query ids known to one process, sorted. *)

val debug_rx : t -> Sim.Node_id.t ->
  (int * Sim.Node_id.t * int * Aggregate.t) list
(** One process's received-partial cache: [(query_id, child, epoch,
    partial)], sorted. *)

val debug_sent : t -> Sim.Node_id.t -> (int * Sim.Node_id.t * Aggregate.t) list
(** One process's suppression references: [(query_id, parent,
    partial)], sorted. *)
