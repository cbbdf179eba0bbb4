(** Heartbeat/timeout failure detection (DESIGN.md §13).

    The paper assumes crashed processes are {e known}: every
    departure, controlled or not, marks the neighborhood from the
    outside ([Config.detector = Oracle]). This runtime removes the
    assumption. Each process sends a [Heartbeat] to its monitored
    peers — tree neighbors (parent and children over all heights) plus
    a ring of [fallbacks] successors and predecessors in id order over
    the member registry, chord-successor style — once per [period] of
    simulated time, and judges each peer by silence alone:

    - silent for [timeout_factor] periods → {e suspected}, challenged
      with a [Suspect] message (a live recipient replies immediately
      and re-checks its own attachment);
    - one further silent period → {e confirmed dead}: the monitor
      initiates the departure locally, evicting the peer from its own
      children sets and marking every entry the oracle would have
      marked, so the CHECK_* modules heal the tree without global
      knowledge.

    Rejoins after a false conviction route through the fallback ring
    ({!Access.initiate_join} consults the installed contact lookup
    before the global oracle).

    Ground-truth liveness is consulted only to {e classify} verdicts
    for telemetry (false suspicions / false kills) — never to make
    them. All timing derives from the engine clock and the detector
    adds no RNG draws, so runs stay deterministic. *)

type t

val attach : Drtree.Overlay.t -> t
(** Install the detector on an overlay whose
    [Config.detector = Heartbeat _]: the [Heartbeat]/[Suspect] message
    handler, the per-round tick (runs at the head of every
    stabilization round; emits at most one heartbeat wave per
    [period] of simulated time), and — when [fallbacks > 0] — the
    fallback-contact lookup for joins.
    @raise Invalid_argument when [Config.detector = Oracle]. *)

val detach : t -> unit
(** Uninstall all three hooks; the overlay reverts to oracle-only
    behavior (soft state in [t] is kept, for post-mortem
    inspection). *)

(** {2 Introspection (tests, fuzz, bench)} *)

val overlay : t -> Drtree.Overlay.t
val period : t -> float

val tick : t -> unit
(** The per-round hook, exposed so harnesses can force a wave check
    without a stabilization round. No-op while the engine clock is
    short of the next wave time. *)

val confirmed : t -> (Sim.Node_id.t * float) list
(** Every process confirmed dead so far, with the engine time of the
    first conviction, in id order. *)

val is_confirmed : t -> Sim.Node_id.t -> bool

val suspicions : t -> (Sim.Node_id.t * Sim.Node_id.t * float) list
(** Standing (monitor, suspect, since) suspicions, sorted. *)

val registry : t -> Sim.Node_id.t list
(** The sorted member registry of the last wave (the fallback ring's
    substrate). *)

val wave : t -> int
(** Number of heartbeat waves emitted so far. *)
