(** Baseline: gossip-based semantic overlay (Sub-2-Sub-style,
    Voulgaris et al. [20], discussed in §4).

    Subscribers gossip to cluster with peers whose filters overlap
    theirs: each keeps a {e semantic view} (the most-overlapping peers
    seen so far) plus a few uniformly random links (the peer-sampling
    service such systems assume). An event floods through matching
    nodes only: the publisher hands it to its whole view; matching
    recipients forward to their own views; non-matching recipients
    drop it.

    Accuracy is {e emergent}: a subscriber is reached only if the
    subgraph induced by the event's matchers (plus the publisher's
    first hop) connects it to the publisher. Before the gossip
    converges — and for isolated interests — events are lost. This is
    the §4 critique measured: DHT-free gossip designs "suffer from …
    the loss of accuracy (apparition of false negatives …)", where the
    DR-tree guarantees none. *)

type t

val create : ?view_size:int -> ?random_size:int -> seed:int -> unit -> t
(** [view_size] (default 8): semantic neighbors kept per node;
    [random_size] (default 3): random links refreshed every round. *)

val add : t -> Geometry.Rect.t -> int
(** Register a subscriber with an empty view; gossip integrates it. *)

val remove : t -> int -> unit
val size : t -> int

val gossip : t -> rounds:int -> unit

val publish : t -> from:int -> Geometry.Point.t -> Report.t
(** Flood within the matching subgraph. False negatives are expected
    until the overlay converges (and possible after — that is the
    point of this baseline). *)

val mean_view_overlap : t -> float
(** Mean over nodes of the fraction of their semantic view whose
    filter overlaps theirs — a convergence indicator (1.0 = fully
    semantic views). *)
