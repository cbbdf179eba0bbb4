(* The rendezvous layer (DESIGN.md §14): which DR-tree a process
   belongs to, and which trees an event or query must reach.

   [Single] is the paper's model — one global tree — and the layer
   degenerates to the identity: every process homes on shard 0 and no
   mapping machinery is ever consulted, so the code path is the
   pre-forest one, bit for bit. [Sharded] partitions the space by the
   Z-order grid of [Baselines.Zorder] into [shards] contiguous
   key ranges: Z-order keeps each range spatially coherent (a shard is
   a union of nearby cells), the ranges are a total, balanced and
   deterministic partition of the key space, and the mapping is a pure
   function of the grid — no RNG draw, no schedule decision — so any
   two runs (under either layout, say) agree on every assignment. *)

module Rect = Geometry.Rect
module Zorder = Baselines.Zorder

type t =
  | Single
  | Sharded of { grid : Zorder.t; shards : int }

(* The finest grid in [4, 10] bits/dim whose cell count covers the
   shard count: >= 16 cells per dimension keeps the per-shard regions
   much finer than the shards themselves (so [intersecting_shards] is
   a real filter, not all-shards), and the cap is Zorder's own. *)
let grid_bits ~dims ~shards =
  let rec go bits =
    let cells = float_of_int (1 lsl bits) ** float_of_int dims in
    if bits >= 10 || cells >= float_of_int shards then bits else go (bits + 1)
  in
  go 4

let create ~forest ~space =
  match forest with
  | Config.Single -> Single
  | Config.Sharded { shards } ->
      let bits_per_dim = grid_bits ~dims:(Rect.dims space) ~shards in
      let grid = Zorder.create ~bits_per_dim ~space () in
      (* More shards than cells would leave shards owning no region;
         Config.max_shards <= 16^2 cells at the 2-D default, so this
         only triggers on deliberately tiny custom spaces. *)
      let shards = min shards (Zorder.total_cells grid) in
      Sharded { grid; shards }

let shards = function Single -> 1 | Sharded { shards; _ } -> shards

let total_cells = function
  | Single -> 1
  | Sharded { grid; _ } -> Zorder.total_cells grid

(* Contiguous Z-ranges: cell [k] of [C] total belongs to shard
   [k * S / C]. Total (every key maps), balanced (ranges differ by at
   most one cell) and monotone in [k] (ranges are contiguous). *)
let shard_of_key grid shards k = k * shards / Zorder.total_cells grid

let dims_match grid r = Rect.dims r = Zorder.dims grid

(* A process homes on the shard covering its filter rectangle's
   Z-cell; we take the cell of the rectangle's {e center} (a rectangle
   can straddle cells — the paper's filters are small relative to the
   space, so the center cell is the canonical choice; deviation noted
   in DESIGN.md §14). Dimension mismatches (a filter from a different
   space) fall back to shard 0 rather than raising: the overlay must
   accept any filter the client hands it. *)
let home_shard t r =
  match t with
  | Single -> 0
  | Sharded { grid; shards } ->
      if dims_match grid r then
        shard_of_key grid shards (Zorder.point_key grid (Rect.center r))
      else 0

let point_shard t p =
  match t with
  | Single -> 0
  | Sharded { grid; shards } -> shard_of_key grid shards (Zorder.point_key grid p)

(* Every shard whose region overlaps the rectangle — the
   publish/subscribe fan-out set. Sorted ascending and duplicate-free
   so iteration order is canonical. *)
let intersecting_shards t r =
  match t with
  | Single -> [ 0 ]
  | Sharded { grid; shards } ->
      if dims_match grid r then
        List.sort_uniq compare
          (List.map (shard_of_key grid shards) (Zorder.rect_keys grid r))
      else List.init shards Fun.id

(* Cell-level introspection, for the qcheck brute-force properties in
   test_forest.ml (a shard's region is a union of cells, not one box,
   so exact containment tests must scan cells). *)

let shard_of_cell t k =
  match t with
  | Single -> 0
  | Sharded { grid; shards } ->
      if k < 0 || k >= Zorder.total_cells grid then
        invalid_arg "Rendezvous.shard_of_cell: key out of range";
      shard_of_key grid shards k

let cell_rect t k =
  match t with
  | Single -> None
  | Sharded { grid; _ } -> Some (Zorder.cell_rect grid k)

(* The MBR of a shard's cells, for diagnostics ([None] under [Single]
   or out of range; contiguous Z ranges are spatially coherent but not
   boxes, so this over-approximates the true region). *)
let shard_region t s =
  match t with
  | Single -> None
  | Sharded { grid; shards } ->
      if s < 0 || s >= shards then None
      else begin
        let acc = ref None in
        for k = 0 to Zorder.total_cells grid - 1 do
          if shard_of_key grid shards k = s then
            let cell = Zorder.cell_rect grid k in
            acc :=
              Some
                (match !acc with
                | None -> cell
                | Some r -> Rect.union r cell)
        done;
        !acc
      end
