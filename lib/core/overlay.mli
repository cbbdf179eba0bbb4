(** The DR-tree overlay (§3 of the paper).

    Subscribers self-organize into a balanced virtual R-tree according
    to the spatial relations of their filters. Joins (Fig. 8) and
    controlled departures (Fig. 9) travel as messages through the
    simulator; the five stabilization modules (Figs. 10–14) execute as
    atomic actions over the state of the nodes involved — the paper's
    own presentation ("upon receive CHECK_X at node p" bodies that read
    and write neighbor variables), i.e. the shared-state model usual in
    self-stabilization. Reads of a {e crashed} node's state are
    impossible; its neighbors observe it as unreachable and repair.

    All randomness flows from the creation seed; runs are
    deterministic. *)

type t

val create :
  ?cfg:Config.t ->
  ?transport:Message.t Sim.Transport.t ->
  ?drop_rate:float ->
  ?space:Geometry.Rect.t ->
  seed:int ->
  unit ->
  t
(** [transport] (default [Inproc]) selects how the engine carries
    messages: pass {!Message.Codec.transport} to encode, byte-count
    and re-decode every inter-process message (byte-accurate traffic
    accounting; identical schedules under equal seeds). [drop_rate]
    loses that fraction of inter-process messages (default 0): joins
    and publications may then fail transiently and are healed by the
    stabilization rounds — see the message-loss tests and experiment
    E18. [space] (default {!Access.default_space}, the workload
    generators' [0, 100]^2 square) is the attribute space the
    rendezvous layer shards under [Config.forest = Sharded]
    (DESIGN.md §14); ignored under [Single]. *)

val cfg : t -> Config.t
val engine : t -> Message.t Sim.Engine.t

(** {2 Membership} *)

val join : t -> Geometry.Rect.t -> Sim.Node_id.t
(** [join t filter] spawns a subscriber process with the given
    (constant) filter and runs the join protocol to completion
    (drains the engine). The very first subscriber becomes the root. *)

val join_async : t -> Geometry.Rect.t -> Sim.Node_id.t
(** Like {!join} but does not run the engine: the JOIN message is only
    queued. Use for concurrent-join experiments. *)

val leave : t -> Sim.Node_id.t -> unit
(** Controlled departure (Fig. 9): notifies the parent of the topmost
    instance, then the process disappears. Runs the engine. The
    subtree below it is repaired by the stabilization modules (the
    paper's "for simplicity" variant). *)

val leave_reconnect : t -> Sim.Node_id.t -> unit
(** The efficient controlled-departure variant §3.2 mentions ("the
    leave module drives the repair process and reconnects whole
    subtrees"): before departing, the node re-joins each subtree it
    was responsible for (the non-self members of its children sets)
    through its surviving parent, so the overlay heals without waiting
    for stabilization rounds. Compare with {!leave} in experiment
    E13. *)

val crash : t -> Sim.Node_id.t -> unit
(** Uncontrolled departure: the process dies silently. No messages.
    Stabilization must detect and repair. The neighborhood is still
    marked from the outside (the paper's known-crash assumption,
    [Config.detector = Oracle]). *)

val crash_silent : t -> Sim.Node_id.t -> unit
(** {!crash} without the oracle's marks: nobody is told. Under
    [Config.detector = Heartbeat] the failure detector must notice
    the silence and initiate the departure itself; under the oracle
    model the next round's sweep finds the hole, and {!stabilize}
    pays one legality check to learn that a quiescent tree is
    illegal. This is the crash the fuzz harness injects in heartbeat
    mode (DESIGN.md §13). *)

(** {2 State access (read-only views; for checkers, metrics, fault
    injection)} *)

val state : t -> Sim.Node_id.t -> State.t option
(** The process state, whether alive or crashed ([None] if the id was
    never spawned). Protocol handlers use an internal accessor that
    refuses crashed nodes; checker code may want both views. *)

val is_alive : t -> Sim.Node_id.t -> bool
val alive_ids : t -> Sim.Node_id.t list
val size : t -> int
(** Number of live subscribers. *)

val designated_root : t -> Sim.Node_id.t option
(** The designated root (Fig. 6): among the live processes whose
    topmost instance is its own parent, the one with the largest
    top-level MBR, ties broken by id. [None] when the overlay is
    empty or no process claims the root role. Under
    [Config.forest = Sharded] this is the largest-MBR winner across
    shard roots — see {!shard_roots} for the per-tree view. *)

val height : t -> int
(** Height of the tree: the root's topmost instance height ([0] for a
    single node; [-1] when empty/rootless). Under [Sharded]: the
    tallest shard root. *)

(** {2 The rendezvous forest} (DESIGN.md §14)

    Under [Config.forest = Single] (the default) there is exactly one
    shard, number [0], and these collapse to the single-tree view. *)

val shard_count : t -> int
(** Number of independent DR-trees ([1] under [Single]). *)

val shard_of : t -> Sim.Node_id.t -> int
(** The shard a process homes on — a pure function of its immutable
    filter through the rendezvous mapper ([0] under [Single]). *)

val shard_roots : t -> Sim.Node_id.t option list
(** Each shard's designated root, by shard number. *)

val rendezvous : t -> Rendezvous.t
(** The rendezvous mapper itself (shard regions, fan-out sets) — for
    tests and diagnostics. *)

(** {2 Publication (§3, selective dissemination)} *)

type publish_report = {
  event_id : int;
  matched : Sim.Node_id.Set.t;
      (** live subscribers whose filter contains the event — ground
          truth, exact: the filter index's containing candidates
          ({!Access.filter_candidates}), each re-tested for liveness and
          containment. The delivery record behind this report lives
          for the one {!publish} call only. *)
  delivered : Sim.Node_id.Set.t;
      (** subscribers that received the event and match it *)
  received : Sim.Node_id.Set.t;  (** every process the event touched *)
  false_positives : int;  (** |received \ matched| *)
  false_negatives : int;  (** |matched \ delivered| *)
  messages : int;  (** inter-process messages used *)
  max_hops : int;  (** longest delivery path *)
}

val publish : t -> from:Sim.Node_id.t -> Geometry.Point.t -> publish_report
(** [publish t ~from p] disseminates the event [p] produced by [from]
    through the tree (up to the root, down every sibling subtree whose
    MBR contains [p]) and reports accuracy and cost. Runs the engine.
    @raise Invalid_argument if [from] is not alive. *)

(** {2 Stabilization}

    Every round is the paper's periodic model (DESIGN.md §10): every
    module runs at every active height of every live process. *)

val stabilize_round : t -> unit
(** One round: every live process runs CHECK_MBR (bottom-up),
    CHECK_CHILDREN, CHECK_PARENT, CHECK_COVER and CHECK_STRUCTURE at
    each of its heights, in deterministic id order, then the engine
    drains (re-joins triggered by repairs complete). *)

val stabilize : ?max_rounds:int -> legal:(t -> bool) -> t -> int option
(** [stabilize ~legal ov] runs {!stabilize_round} until quiescence —
    a round that marked nothing, confirmed by one [legal ov] check
    (pass [Invariant.is_legal]) — so converged runs pay one global
    scan instead of one per round. A quiescent-but-illegal state
    (silent corruption) marks every entry and runs another round.
    Returns the number of rounds taken ([Some 0] when nothing was
    marked since the last round and the state is legal), or [None] if
    [max_rounds] (default 50) was not enough. *)

val stabilize_round_mp : t -> unit
(** The message-passing variant of {!stabilize_round}: each node
    queries every neighbor once (QUERY/REPORT messages through the
    engine, counted), then runs the four local repair modules using
    {e only} the received reports and its own state. Neighbors that do
    not report are treated as dead. Multi-party transactions (cover
    exchange, compaction, root handover) remain atomic locked
    exchanges. Convergence may need more rounds than the shared-state
    mode — each round acts on start-of-round snapshots. Compare both
    in experiment E7b. *)

val stabilize_mp : ?max_rounds:int -> legal:(t -> bool) -> t -> int option
(** {!stabilize} using {!stabilize_round_mp}. *)

val run : t -> unit
(** Drain the engine ([Engine.run] with default limits). *)

(** {2 Operation metrics} *)

val last_join_hops : t -> int
(** Inter-process hops of the most recently completed join. *)

val new_event_id : t -> int
(** Fresh event identifier (used internally by {!publish}; exposed for
    tests that hand-craft dissemination). *)

(** {2 Internal hooks} *)

val iter_states : t -> (Sim.Node_id.t -> State.t -> unit) -> unit
(** Iterate over live processes in id order. *)

val telemetry : t -> Telemetry.t
(** The overlay's metric bus: state probes, repair actions by kind,
    per-round reports, dissemination records. See {!Telemetry}. *)

val access : t -> Access.net
(** The underlying state-access layer — for white-box tests that
    drive {!Repair} helpers directly. *)

(** {2 Write-path marks} *)

val mark_dirty : t -> Sim.Node_id.t -> int -> unit
(** Mark one (process, height) entry as written (and refresh the
    process's root-claimant cache entry) — what every in-protocol
    write path does; exposed for fault injection and tests. *)

val dirty_size : t -> int
(** Marks made since the last stabilization round began (0 at
    quiescence). *)

val enable_logging : t -> unit
(** Install an engine tracer that reports every message delivery on
    the library's [Logs] source ("drtree", debug level). Useful with
    [Logs.set_level (Some Logs.Debug)] when debugging a scenario. *)

val log_src : Logs.src
(** The library's log source. *)

val state_probes : t -> int
(** Cumulative count of remote state reads performed by module bodies
    (the shared-state model's implicit communication): each would be a
    query/reply round trip in a purely message-passing implementation.
    E7 reports these alongside the explicit protocol messages.
    Shorthand for [Telemetry.probes (telemetry t)]. *)

val reset_state_probes : t -> unit

val fp_swap_round : t -> int
(** Dynamic reorganization of §3.2: every interior instance compares
    its accumulated false-positive count with what each child would
    have experienced in its place, and swaps roles with the best child
    when beneficial. Clears the counters. Returns the number of swaps
    performed. *)

(** {2 Aggregation hooks}

    The in-network aggregation subsystem ([lib/agg]) layers on top of
    the overlay without a reverse dependency: [Agg.Runtime.attach]
    installs a message handler (receiving the [Agg_subscribe] /
    [Agg_partial] / [Agg_result] dispatches) and a repair pass that
    both stabilization round drivers co-schedule with the CHECK_*
    modules. Without a handler installed, [Agg_*] messages are
    inert. *)

val set_agg_handler :
  t -> (Message.t Sim.Engine.ctx -> State.t -> Message.t -> unit) option -> unit

val set_agg_repair : t -> (unit -> unit) option -> unit

(** {2 Failure-detection hooks}

    Same pattern for the failure-detection subsystem ([lib/fd],
    DESIGN.md §13): [Fd.Runtime.attach] installs a handler for the
    [Heartbeat]/[Suspect] dispatches, a per-round tick the round
    drivers call {e first} (so timeout verdicts are repaired the same
    round), and a fallback-contact lookup
    {!Access.initiate_join} consults before the global oracle. All
    [None] under [Config.detector = Oracle] — the bit-identical
    default. *)

val set_fd_handler :
  t -> (Message.t Sim.Engine.ctx -> State.t -> Message.t -> unit) option -> unit

val set_fd_round : t -> (unit -> unit) option -> unit
val set_fd_contact : t -> (Sim.Node_id.t -> Sim.Node_id.t option) option -> unit
