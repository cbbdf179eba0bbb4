(** Structured telemetry bus for the overlay.

    Every observable cost of the protocol flows through one value of
    {!t} attached to the overlay: remote state probes (the
    shared-state model's hidden communication), repair actions by
    CHECK_* module, per-stabilization-round reports, the §3.2
    false-positive interest counters driving dynamic reorganization,
    and per-event delivery records for publications. The experiments
    ([bench/]) and the model checker ([lib/mck]) read their metrics
    from here instead of scraping ad-hoc counters out of the
    overlay. *)

type t

(** The repair module (Figs. 10–14, plus root condensation) that
    performed a state mutation. *)
type repair = Mbr | Children | Parent | Cover | Structure | Root

val create : unit -> t

(** {2 State probes}

    A probe is a module body executing at node [p] reading another
    node's state — free in the shared-state model, one QUERY/REPORT
    round trip in a purely message-passing implementation (E7). *)

val record_probe : t -> unit

val probes : t -> int
val reset_probes : t -> unit

(** {2 Repair actions} *)

val record_repair : t -> repair -> unit
(** Called by {!Repair} (and {!Election}) when a check actually
    mutates state — detections that find nothing to fix are not
    counted. *)

val repair_count : t -> repair -> int
val total_repairs : t -> int

(** {2 Per-kind wire traffic}

    Byte-accurate accounting next to the message counts: one counter
    per message kind, indexed by {!Message.kind_code} and reported
    under {!Message.tag}'s name, fed by the engine's meter hook
    (installed by [Access.create]) on every inter-process send and
    every successfully decoded delivery. Under the [Inproc] transport
    messages carry no frames, so the byte fields stay [0] while the
    counts still accumulate. *)

type traffic = {
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable recv_msgs : int;
  mutable recv_bytes : int;
}

val record_traffic :
  t -> [ `Sent | `Received ] -> code:int -> bytes:int -> unit
(** Count one message of kind [code] ({!Message.kind_code}). *)

val traffic_of : t -> string -> traffic
(** Snapshot of one kind's counters, by {!Message.tag} name (zeros if
    never seen). *)

val traffic_entries : t -> (string * traffic) list
(** Every kind that carried a message since creation or the last
    {!reset_traffic}, as snapshots in deterministic (kind-sorted)
    order. *)

val reset_traffic : t -> unit

(** {2 Per-round reports} *)

type round_report = {
  round : int;  (** 0-based round number since creation/reset *)
  probes : int;  (** remote state probes performed in this round *)
  messages : int;  (** engine messages sent during this round *)
  bytes : int;
      (** frame bytes sent during this round ([0] under [Inproc]) *)
  repairs : int array;  (** per-kind counts; index with {!round_repairs} *)
  execs : int;  (** CHECK_* module invocations executed this round *)
}

val record_exec : t -> unit
(** Called by the round drivers per CHECK_* module invocation (whether
    or not the module finds anything to repair). *)

val execs : t -> int

val begin_round : t -> messages:int -> bytes:int -> unit
(** Mark the start of a stabilization round; [messages] and [bytes]
    are the engine's cumulative sent counters at that moment. *)

val end_round : t -> messages:int -> bytes:int -> unit
(** Close the round opened by {!begin_round} and append a
    {!round_report} with the deltas. A call without a matching
    [begin_round] is ignored. *)

val rounds : t -> round_report list
(** All completed rounds, oldest first. *)

val last_round : t -> round_report option
val reset_rounds : t -> unit
val round_repairs : round_report -> repair -> int

(** {2 Aggregation epoch counters}

    Per-epoch traffic of the in-network aggregation subsystem
    ([lib/agg]): partials actually sent up the parent chain, reports
    suppressed by the temporal coherency tolerance, and stale partials
    dropped (sender no longer a child / receiver no longer active at
    the target height / obsolete epoch). Same mark/delta pattern as
    the round reports. *)

type agg_epoch_report = {
  epoch : int;
  partials_sent : int;
  suppressed : int;
  stale_dropped : int;
}

val record_agg_sent : t -> unit
val record_agg_suppressed : t -> unit
val record_agg_stale : t -> unit

val record_agg_merge : t -> unit
(** One cross-shard [Agg_merge] partial actually sent by a peer shard
    root to a query's merge owner (DESIGN.md §15). Always [0] under
    [Config.forest = Single] — the merge plane never runs at one
    shard. Suppressed merges count through {!record_agg_suppressed},
    like tree partials. *)

val agg_sent : t -> int
val agg_suppressed : t -> int
val agg_stale_dropped : t -> int
val agg_merges : t -> int

val begin_agg_epoch : t -> epoch:int -> unit
val end_agg_epoch : t -> unit
(** Close the epoch opened by {!begin_agg_epoch} and append an
    {!agg_epoch_report} with the deltas; ignored without a matching
    mark. *)

val agg_epochs : t -> agg_epoch_report list
(** All completed epochs, oldest first. *)

val last_agg_epoch : t -> agg_epoch_report option

(** {2 Failure-detection counters}

    Fed by [lib/fd]'s heartbeat/timeout detector (DESIGN.md §13).
    Suspicions count timeout verdicts (a monitored peer missed
    [timeout_factor] periods); confirms count the confirmed-dead
    verdicts that actually initiated a departure. Both are classified
    against ground-truth liveness — instrumentation only, never
    consulted by the protocol — so false suspicions (the peer was
    alive) and false kills are first-class metrics. Detection latency
    is simulated time from the monitor's last evidence of life to the
    confirm, accumulated over true confirms only. Heartbeat byte
    overhead needs no dedicated counter: the per-kind traffic table
    above picks up [HEARTBEAT]/[SUSPECT] like any other kind. *)

val record_fd_suspicion : t -> false_positive:bool -> unit
val record_fd_confirm : t -> false_kill:bool -> latency:float -> unit
val fd_suspicions : t -> int
val fd_false_suspicions : t -> int
val fd_confirms : t -> int
val fd_false_kills : t -> int

val fd_mean_detection_latency : t -> float option
(** [None] until the first true confirm. *)

(** {2 False-positive interest counters (§3.2)}

    One counter per held set instance [(holder, height)]: how many
    events the holder received for the set without matching them
    itself ([self_fp]), and how many each member {e would} have
    received spuriously in the holder's place ([would]). Consumed by
    [Overlay.fp_swap_round]. *)

type fp_counter = {
  mutable self_fp : int;
  would : (Sim.Node_id.t, int) Hashtbl.t;
}

val fp_counter : t -> Sim.Node_id.t -> int -> fp_counter
(** [fp_counter t p h] returns (creating on first use) the counter of
    [p]'s instance at height [h]. *)

val clear_fp : t -> Sim.Node_id.t -> int -> unit
(** Forget the counter of one instance — called whenever a role
    exchange or condensation moves the set, since the accumulated
    interest no longer describes the new holder. *)

val fp_entries : t -> ((Sim.Node_id.t * int) * fp_counter) list
(** All live counters, in deterministic (id, height) order. *)

val reset_fp : t -> unit

(** {2 Event delivery records}

    One record per event, alive for a single {!Dissemination.publish}
    call: registered with the ground-truth matched set — answered by
    {!Access.filter_candidates} plus a per-candidate liveness and
    containment test — filled in by the [Publish] handlers while the
    call drains the engine, and forgotten before the call returns. A
    [Publish] still in flight afterwards finds no record and is only
    forwarded, so history stays bounded however many events are
    published. *)

type event_record = {
  matched : Sim.Node_id.Set.t;
  origin : Sim.Node_id.t;
  mutable received : Sim.Node_id.Set.t;
  mutable delivered : Sim.Node_id.Set.t;
  mutable max_hops : int;
}

val fresh_event_id : t -> int
(** Allocate an event id without registering a record (tests that
    hand-craft dissemination use the id alone). *)

val register_event :
  t ->
  event_id:int ->
  matched:Sim.Node_id.Set.t ->
  origin:Sim.Node_id.t ->
  event_record

val event : t -> int -> event_record option

val forget_event : t -> int -> unit
(** Drop an event's record (no-op when absent). *)

(** {2 Pretty-printing} *)

val pp_round : Format.formatter -> round_report -> unit
val pp : Format.formatter -> t -> unit
