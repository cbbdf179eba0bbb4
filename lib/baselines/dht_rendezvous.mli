(** Baseline: DHT rendezvous pub/sub over a space-filling curve
    (Meghdoot/Scribe-style, the DHT-based family of §4).

    The attribute space is cut into a fixed grid; each cell's Z-order
    key is owned by a rendezvous node on a Chord-like ring (ids hashed
    onto the key space, lookup in [⌈log2 N⌉] hops). A subscription
    registers on {e every} cell its rectangle overlaps — the "mapping
    of complex filters to uni-dimensional name spaces" whose cost the
    paper criticizes: wide filters register on many cells, so
    subscription cost and per-node storage grow with filter size,
    and (in the default cell-granular mode) every registrant of the
    event's cell receives the event, giving false positives. There
    are no false negatives (cells cover the space).

    [exact] mode lets rendezvous nodes keep whole rectangles and
    filter exactly — accuracy is then perfect and only the cost
    problems remain. *)

type t

val create : ?bits_per_dim:int -> ?exact:bool -> space:Geometry.Rect.t -> unit -> t
(** [bits_per_dim] (default 4, i.e. 16 cells per dimension) fixes the
    grid resolution. [space] must be finite in every dimension.
    @raise Invalid_argument on unbounded space or [bits_per_dim]
    outside [1, 10]. *)

val add : t -> Geometry.Rect.t -> int
(** Register a subscription. Registration messages are accumulated in
    {!registration_messages}. Rectangles are clipped to the space. *)

val remove : t -> int -> unit
val size : t -> int

val publish : t -> from:int -> Geometry.Point.t -> Report.t
(** Route the event to its cell's rendezvous node and forward to
    registrants. Points outside the space are clamped. *)

val registration_messages : t -> int
(** Total messages spent registering subscriptions so far (ring
    routing to each distinct rendezvous cell). *)

val max_registrations : t -> int
(** Largest number of registrations stored by one rendezvous node —
    the storage hot-spot measure. *)
