(** A Chord ring over the simulation engine.

    The classical DHT substrate (Stoica et al.) that the DHT-based
    publish/subscribe systems of the paper's §4 (Scribe, Meghdoot,
    Bayeux) build on. Lookups are {e routed} — each forwarding step is
    a real simulator message, so hop counts and failure behaviour are
    measured, not modelled. Ring maintenance (successor repair,
    predecessor notification, finger refresh) runs in explicit rounds,
    mirroring how the DR-tree's stabilization is driven; finger tables
    are refreshed from an idealized global view, which can only
    {e flatter} this baseline.

    Nodes can crash at any time; each node keeps a successor list of
    length [succ_len] for resilience, and {!stabilize_round} repairs
    the ring — the machinery whose churn resistance E19 compares
    against the DR-tree's. *)

type t

val create : ?succ_len:int -> seed:int -> unit -> t
(** [succ_len] (default 4) is the successor-list length. *)

val join : t -> Sim.Node_id.t
(** Spawn a node, position it via a routed lookup through a random
    live contact, and let it be absorbed by the next stabilization
    rounds. Runs the engine. *)

val crash : t -> Sim.Node_id.t -> unit

val size : t -> int
val alive_ids : t -> Sim.Node_id.t list
val key_of : t -> Sim.Node_id.t -> Key.t option

val lookup : t -> from:Sim.Node_id.t -> Key.t -> (Sim.Node_id.t * int) option
(** [lookup t ~from k] routes a find-successor request from [from];
    returns the owner and the hop count, or [None] when routing died
    (a dead end through crashed nodes — the failure mode churn
    causes). Runs the engine. *)

val owner_of : t -> Key.t -> Sim.Node_id.t option
(** Ground truth: the live node whose key is the first at or after
    [k] on the circle. *)

val stabilize_round : t -> unit
(** One maintenance round at every live node: prune dead successors,
    adopt the successor's predecessor when closer, notify, refresh the
    successor list and fingers. *)

val stabilize : ?max_rounds:int -> t -> int option
(** Rounds until {!is_consistent} (default max 50). *)

val is_consistent : t -> bool
(** Every live node's first successor is the next live key on the
    circle (the ring invariant). *)

val messages_sent : t -> int
val reset_counters : t -> unit
