(** The rendezvous layer (DESIGN.md §14): which DR-tree a process
    belongs to, and which trees an event or query must reach.

    Under [Config.forest = Single] the layer is the identity — one
    shard, every process homes on it, and none of the mapping
    machinery is consulted, keeping the code path bit-identical to the
    pre-forest system. Under [Sharded {shards}] the space is
    partitioned by Z-order ({!Geometry.Zorder}) into [shards]
    contiguous key ranges; the mapping is a pure function of the grid
    (no RNG, no schedule state), so it is total, balanced, and
    deterministic across layouts ([test_forest.ml] holds it to
    that). *)

type t

val create : forest:Config.forest -> space:Geometry.Rect.t -> t
(** Build the mapper for the configured forest over the given finite
    space. The grid resolution is the finest [bits_per_dim] in
    [4, 10] whose cell count covers [shards]; a shard count beyond
    the cell count is clamped (every shard must own >= 1 cell). *)

val shards : t -> int
(** Number of independent trees: [1] under [Single]. *)

val home_shard : t -> Geometry.Rect.t -> int
(** The shard a process with this filter rectangle homes on: the
    shard covering the Z-cell of the rectangle's center (deviation
    from a full-rectangle assignment noted in DESIGN.md §14). Total:
    dimension mismatches fall back to shard 0. *)

val point_shard : t -> Geometry.Point.t -> int
(** The shard covering the Z-cell of the point. *)

val intersecting_shards : t -> Geometry.Rect.t -> int list
(** Every shard owning at least one grid cell the rectangle overlaps
    — the publish/subscribe fan-out set. Sorted ascending,
    duplicate-free; [[0]] under [Single]; every shard on a dimension
    mismatch. *)

(** {2 Cell-level introspection} (test_forest.ml's brute-force
    ground truths; diagnostics) *)

val total_cells : t -> int
(** Grid cells ([1] under [Single]). *)

val shard_of_cell : t -> int -> int
(** The shard owning the cell with the given Z-key ([0] under
    [Single]).
    @raise Invalid_argument when the key is out of range under
    [Sharded]. *)

val cell_rect : t -> int -> Geometry.Rect.t option
(** The spatial extent of a cell ([None] under [Single]). *)

val shard_region : t -> int -> Geometry.Rect.t option
(** MBR of a shard's cells ([None] under [Single] or out of range).
    An over-approximation: contiguous Z ranges are spatially coherent
    but not boxes. *)
