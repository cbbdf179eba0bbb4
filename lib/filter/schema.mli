(** Attribute schemas.

    A schema fixes the set of attributes of the content-based model and
    assigns each a spatial dimension, so that subscriptions become
    rectangles and events become points of a common space. *)

type t

val make : string list -> t
(** [make names] is the schema whose [i]-th dimension carries the
    [i]-th attribute. @raise Invalid_argument on the empty list or
    duplicate names. *)

val dims : t -> int
(** Number of attributes / spatial dimensions. *)

val attributes : t -> string list
(** Attribute names in dimension order. *)

val dimension : t -> string -> int option
(** [dimension s name] is the dimension carrying [name], if any. *)

val attribute : t -> int -> string
(** [attribute s i] is the attribute of dimension [i].
    @raise Invalid_argument if out of range. *)

val mem : t -> string -> bool
(** [mem s name] is true iff [name] is an attribute of [s]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
