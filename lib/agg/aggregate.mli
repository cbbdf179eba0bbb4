(** The partial-aggregate algebra (TAG's classic five functions).

    A partial is one merge-closed summary — count, sum, min, max —
    from which every supported aggregate finalizes, so an interior
    instance combines its children's partials without knowing which
    function the query asked for. [(t, merge, identity)] is a
    commutative monoid up to floating-point rounding: COUNT/MIN/MAX
    are exact under any merge order, SUM/AVG are exact whenever the
    values are integers small enough for exact float arithmetic (the
    property suite and the differential oracle use integer-valued
    readings for this reason). *)

type fn = Drtree.Message.agg_fn = Count | Sum | Min | Max | Avg

val all_fns : fn list
val fn_to_string : fn -> string

type t = Drtree.Message.agg_partial = {
  a_count : int;
  a_sum : float;
  a_min : float;
  a_max : float;
}

val identity : t
(** The empty partial: [a_min]/[a_max] hold the [infinity] sentinels. *)

val of_value : float -> t
val is_empty : t -> bool

val merge : t -> t -> t
(** Commutative, associative, [identity]-neutral. *)

val finalize : fn -> t -> float option
(** [None] for MIN/MAX/AVG of an empty partial. *)

val equal : t -> t -> bool

val delta : t -> t -> float
(** Component-wise max distance between two partials — the quantity
    the temporal coherency tolerance bounds. Equal components
    (including the empty-partial infinities) are at distance [0]. *)

val pp : Format.formatter -> t -> unit
