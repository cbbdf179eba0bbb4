(** Z-order (Morton) mapping of a bounded attribute space onto a
    one-dimensional key space — the "mapping of complex filters to
    uni-dimensional name spaces" (§4) that DHT-based pub/sub relies
    on. *)

type t

val create : ?bits_per_dim:int -> space:Rect.t -> unit -> t
(** [bits_per_dim] (default 4): the grid has [2^bits_per_dim] cells
    per dimension. [space] must be finite in every dimension.
    @raise Invalid_argument on unbounded space or bits outside
    [1, 10]. *)

val dims : t -> int
val cells_per_dim : t -> int

val total_cells : t -> int

val point_key : t -> Point.t -> int
(** Z-key of the cell containing the point (clamped to the space). *)

val rect_keys : t -> Rect.t -> int list
(** Z-keys of every cell the rectangle overlaps (clipped to the
    space). *)

val cell_rect : t -> int -> Rect.t
(** The spatial extent of the cell with the given Z-key.
    @raise Invalid_argument when the key is out of range. *)
