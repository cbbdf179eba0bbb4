(** Deterministic discrete-event message-passing engine.

    Processes are spawned with a message handler; messages between
    processes are delivered after a (configurable) latency, in
    deterministic (time, sequence) order. The engine is the system
    model of §2.1 of the paper: a finite, unbounded set of processes
    that can join, leave and crash at any time; the overlay protocols
    are pure message handlers on top.

    Self-messages are free (a process consulting its own state); only
    messages between distinct processes count toward the message
    complexity counters.

    All inter-process communication goes through a {!Transport}: under
    [Inproc] (default) the OCaml value is handed straight to the
    receiver — the historical behavior, bit-identical traces; under
    [Wire] every message is encoded to a binary frame at send time,
    the engine carries and counts the frame's bytes, and the receiver
    decodes the frame — byte-accurate traffic accounting with the
    serialization boundary exercised on every hop. *)

type 'm t
(** An engine carrying messages of type ['m]. *)

type 'm ctx
(** Handler context: the receiving process's view of the engine. *)

type latency =
  | Fixed of float  (** every link takes exactly this long *)
  | Uniform of float * float
      (** per-message latency uniform on [lo, hi) — models jitter *)

(** How [drop_rate] is applied to a message (see {!set_loss_model}). *)
type loss_model =
  | Per_message  (** every inter-process message is lost with
                     probability [drop_rate] regardless of size *)
  | Per_byte
      (** each byte of the frame is lost independently with
          probability [drop_rate]: a frame of [n] bytes survives with
          probability [(1 - drop_rate)^n], so long messages are
          proportionally more fragile — the honest model once messages
          have sizes. Requires a [Wire] transport to bite; sizeless
          messages fall back to the per-message rate. *)

val create :
  ?latency:latency ->
  ?transport:'m Transport.t ->
  ?drop_rate:float ->
  seed:int ->
  unit ->
  'm t
(** [create ~seed ()] is an empty engine at time [0.]. Default latency
    is [Fixed 1.]; default transport is [Inproc]. [drop_rate] (default
    [0.]) silently loses that fraction of inter-process messages at
    send time (self-messages are never dropped — a process always
    hears itself); lost messages are counted in {!messages_lost}.
    Protocols built on this engine must tolerate loss through their
    periodic repair — exactly what the DR-tree's stabilization
    provides. Neither transport consumes engine randomness, so under
    equal seeds [Inproc] and [Wire] runs deliver the same schedule.
    @raise Invalid_argument if outside [0, 1). *)

val rng : 'm t -> Rng.t
(** The engine's own random stream (latency jitter; also convenient
    for experiment scripts). *)

val now : 'm t -> float
(** Current virtual time. *)

val transport : 'm t -> 'm Transport.t

val spawn : 'm t -> ('m ctx -> 'm -> unit) -> Node_id.t
(** [spawn t handler] creates a live process and returns its id. *)

val kill : 'm t -> Node_id.t -> unit
(** Crash a process: it stops handling messages; in-flight and future
    messages to it are dropped (and counted). Idempotent. *)

val is_alive : 'm t -> Node_id.t -> bool
val alive_nodes : 'm t -> Node_id.t list
(** Live processes in spawn order. *)

val alive_count : 'm t -> int
val spawned_count : 'm t -> int

val inject : 'm t -> dst:Node_id.t -> 'm -> unit
(** Message from the environment (no source process): delivered after
    the link latency. Used to start joins, publications, and
    stabilization rounds. Counted as a message (and framed under a
    [Wire] transport, like any inter-process message). *)

val inject_delayed : 'm t -> delay:float -> dst:Node_id.t -> 'm -> unit
(** [inject_delayed t ~delay ~dst m] is {!inject} with an explicit
    delivery delay replacing the link latency: [m] arrives at
    [now t +. delay]. The timer primitive for periodic protocols (the
    failure detector schedules each heartbeat wave one period ahead
    with it). Loss, framing, byte accounting and metering apply
    exactly as for {!inject}; the latency sampler is simply not
    consulted (so under [Uniform] latency a delayed injection spends
    no jitter draw).
    @raise Invalid_argument if [delay] is negative. *)

val run : ?max_events:int -> 'm t -> [ `Quiescent | `Limit ]
(** Process queued events until none remain ([`Quiescent]) or
    [max_events] have fired ([`Limit], default 10 million — a runaway
    guard, not a tuning knob). *)

val step : 'm t -> bool
(** Process exactly one event; [false] when the queue is empty. *)

val pending : 'm t -> int
(** Number of queued events. *)

(** {2 Handler context} *)

val self : 'm ctx -> Node_id.t
val engine : 'm ctx -> 'm t

val send : 'm ctx -> Node_id.t -> 'm -> unit
(** [send ctx dst m] delivers [m] to [dst] after the link latency.
    Sending to oneself is free (see counters) but still deferred, so
    handlers never re-enter. *)

(** {2 Counters}

    Counters accumulate until {!reset_counters}. *)

val messages_sent : 'm t -> int
(** Messages between distinct processes (the paper's message
    complexity measure), including environment injections. *)

val self_messages : 'm t -> int
val messages_dropped : 'm t -> int
(** Messages whose destination was dead at delivery time. *)

val messages_lost : 'm t -> int
(** Messages lost to the [drop_rate] at send time (or dropped by an
    adversarial scheduler). *)

val bytes_sent : 'm t -> int
(** Total frame bytes of inter-process messages at send time. Always
    [0] under [Inproc] (no wire representation) — the bytes
    counterpart of {!messages_sent}. *)

val bytes_received : 'm t -> int
(** Frame bytes successfully decoded and handled at delivery;
    [bytes_sent - bytes_received] is what loss, dead destinations,
    in-flight frames and decode failures consumed. *)

val bytes_lost : 'm t -> int
(** Frame bytes lost to [drop_rate] or a scheduler's [Drop]. *)

val decode_errors : 'm t -> int
(** Frames the [Wire] codec rejected at delivery. Always [0] for a
    correct codec: any increment is a codec bug (the model checker
    treats it as a counterexample). The offending message is
    discarded, exactly like a lost message. *)

val last_decode_error : 'm t -> string option
(** The most recent decode failure, for diagnostics. *)

val set_drop_rate : 'm t -> float -> unit
(** Change the loss rate mid-run (e.g. an experiment measuring error
    under loss, then disabling loss to verify exact recovery).
    Validates exactly like {!create}.
    @raise Invalid_argument outside [\[0, 1)]. *)

val set_loss_model : 'm t -> loss_model -> unit
(** Default [Per_message]. Switching models never perturbs the
    deterministic schedule: both spend one RNG draw per candidate
    message. *)

val loss_model : 'm t -> loss_model

val events_processed : 'm t -> int
val reset_counters : 'm t -> unit

val set_meter : 'm t -> ([ `Sent | `Received ] -> 'm -> int -> unit) option -> unit
(** [set_meter t (Some f)] observes every inter-process message with
    its frame byte size ([0] under [Inproc]): [f `Sent m bytes] at
    send time (before any loss), [f `Received m bytes] after a
    successful decode at delivery. Self-messages are not metered,
    mirroring {!messages_sent}. The overlay's {!Telemetry} uses this
    hook for per-message-kind traffic accounting without the engine
    knowing the message type. *)

(** {2 Adversarial scheduling}

    By default events fire in deterministic (time, sequence) order —
    the synchronous daemon every test exercises. A {e scheduler} turns
    the engine into an adversarial (asynchronous, unfair) daemon: at
    every step it sees all enabled events and chooses which one fires
    next, and may also drop or duplicate it — the fault classes the
    self-stabilization proofs must survive. The model-checking harness
    ([lib/mck]) builds its strategies on this hook. *)

type 'm pending_event = {
  p_time : float;  (** nominal delivery time *)
  p_src : Node_id.t option;  (** [None] for environment injections *)
  p_dst : Node_id.t;
  p_msg : 'm;  (** the sender's value (frames are not re-decoded for
                   the view) *)
  p_bytes : int;  (** frame size on the wire; [0] under [Inproc] —
                      lets fault budgets meter bytes, not messages *)
}

type choice =
  | Deliver of int  (** fire pending event [i] now *)
  | Drop of int  (** silently lose pending event [i] (counted in
                     {!messages_lost}) *)
  | Duplicate of int
      (** fire pending event [i] now {e and} leave a copy enqueued
          (counted in {!messages_duplicated}) *)

val set_scheduler : 'm t -> ('m pending_event array -> choice) option -> unit
(** [set_scheduler t (Some f)] routes every subsequent {!step} through
    [f]: the array holds all enabled events in (time, sequence) order
    (never empty), and [f] returns what to do with one of them (an
    out-of-range index falls back to event 0). Virtual time never runs
    backward: delivering a later event first advances the clock, and
    earlier events then fire at that later time. [set_scheduler t None]
    restores strict timestamp order. Scheduled stepping re-sorts the
    queue each step — O(n log n) per event, intended for
    model-checking runs, not benchmarks. *)

val messages_duplicated : 'm t -> int
(** Events duplicated by a scheduler. *)
