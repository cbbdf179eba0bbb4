(** The fuzz driver: execute a {!Trace.t} against the overlay under its
    adversarial schedule, asserting the paper's guarantees at every
    step.

    What is asserted, and when:

    - {b Always}: no handler lets an exception escape — in particular
      [Invalid_argument] from [State.level_exn], the signature of a
      handler trusting a stale message.
    - {b After every join} (clean FIFO traces only): the state is legal
      (Lemma 3.2: a join from a legal state lands in a legal state —
      a sequential-execution property, so a hostile reordering
      schedule voids it until stabilization). Leaves, crashes and
      corruptions instead mark the run {e dirty} until a [Stabilize]
      op restores legality — plain leave is the paper's lazy variant
      and legitimately leaves orphans behind.
    - {b After every publish} from a legal state (clean traces): the
      {!Oracle} — recipients equal the sequential R-tree's and the
      brute-force matcher's answer, zero false negatives.
    - {b Finally}: stabilization converges within [4 N + 20] rounds
      (under reliable delivery; a faulty schedule is uninstalled
      first), the maximum degree is at most [M], the tree height is at
      most the information-theoretic bound for the population, and
      random probe publications pass the oracle.
    - {b Wire traces}: the run ends with zero decode errors — under
      [Trace.Wire] every inter-process message crosses
      {!Drtree.Message.Codec}, so a frame the decoder rejects is a
      codec bug and a counterexample in itself.

    Traces with [drop > 0] or [dup > 0] ("faulty") only assert the
    no-exception and final-convergence clauses: a dropped JOIN
    legitimately strands the joiner until stabilization.

    {b Heartbeat traces} ([config.detector = Heartbeat _], DESIGN.md
    §13) additionally run the failure detector: [Crash] ops are
    injected {e silently} ({!Drtree.Overlay.crash_silent} — nobody is
    told), and the final phase asserts the crash-convergence
    property — with reliable delivery restored, every crashed process
    is confirmed dead by its monitors within a detection budget (ring
    monitors require [fallbacks > 0]), and on traces that were never
    faulty zero live processes were ever convicted (a challenged
    suspect answers within the same round's drain). *)

type location = [ `Prelude of int | `Op of int | `Final ]

type failure = { at : location; what : string }
type outcome = Passed | Failed of failure

val pp_location : Format.formatter -> location -> unit
val pp_failure : Format.formatter -> failure -> unit

val round_bound : int -> int
(** Convergence budget for a population of [n]: [4 * max 4 n + 20]. *)

val height_bound : min_fill:int -> int -> int
(** Largest height a legal tree on [n] processes can have
    ([n >= 2 * m^(h-1)]). *)

val run_trace : ?probes:int -> Trace.t -> outcome
(** Execute one trace from scratch; deterministic in the trace.
    [probes] (default 3) is the number of final oracle publications. *)

type summary = { final_size : int; final_height : int; final_legal : bool }
(** Shape fingerprint of the overlay a trace leaves behind. *)

val pp_summary : Format.formatter -> summary -> unit

type fingerprint = {
  fp_probes : int;
  fp_execs : int;
  fp_repairs : int;
  fp_rounds : int;
  fp_msgs_sent : int;
  fp_selfs : int;
  fp_lost : int;
  fp_duplicated : int;
  fp_events : int;
  fp_bytes_sent : int;
  fp_bytes_received : int;
  fp_bytes_lost : int;
  fp_traffic : (string * int * int * int * int) list;
      (** kind, sent msgs/bytes, recv msgs/bytes; kind-sorted *)
}
(** Counter fingerprint of a run: every telemetry and engine counter
    that could observe a difference between two realizations. *)

val pp_fingerprint : Format.formatter -> fingerprint -> unit

val run_trace_full :
  ?probes:int -> Trace.t -> outcome * summary * fingerprint
(** {!run_trace}, also returning the final shape and the counter
    fingerprint. *)

(** {2 Differential axes}

    A differential runs one trace under every variant of an axis — a
    configuration knob with a reference realization — and compares
    each run with the first variant's. *)

type standard =
  | Exact
      (** Bit-identical observables on {e every} trace, faulty or
          hostile included: exact verdict (failure location and
          message), exact final shape including height, and exact
          {!fingerprint} down to the byte accounting. For variants that
          touch no RNG draw and no schedule decision, so any [Error] is
          a bug in one of them. *)
  | Verdict_legality
      (** The verdicts must agree (pass or fail), and under a strict
          schedule (clean FIFO) the final size and legality must too.
          Height is not compared: an instance written mid-round is
          repaired the same round by a full sweep's later passes but
          one round later by the incremental plan, so interacting
          repairs occasionally (~1/1000 strict traces) settle on
          different, equally legal trees (DESIGN.md §10). *)

type axis = {
  name : string;
  variants : (string * (Trace.t -> Trace.t)) list;
      (** named trace rewrites; the first is the reference *)
  standard : standard;
}

val axes : axis list
(** The configuration axes with a reference realization. Each is a
    row of {!Drtree.Config.fields}, and its variants are named by the
    row's value strings and set on the trace's [config]:
    - [scheduler]: [full] vs [incremental], [Verdict_legality];
    - [layout]: [hashed] vs [flat], [Exact] (DESIGN.md §11);
    - [forest]: [single] vs [sharded:1], [Exact] (DESIGN.md §14). *)

val differential : ?probes:int -> axis -> Trace.t -> (unit, string) result
(** Run the trace under each of [axis]'s variants and compare every run
    with the reference's under [axis.standard]. [Error] names the axis,
    the two variants and what differs — a counterexample to the axis's
    equivalence.
    @raise Invalid_argument if [axis.variants] is empty. *)

val random_rect : Sim.Rng.t -> Geometry.Rect.t
(** Uniform filter in the default \[0,100\]² space, extent 1–10 per
    axis. *)

val random_trace :
  Sim.Rng.t ->
  ?nodes:int ->
  ?ops:int ->
  ?mode:Trace.mode ->
  ?transport:Trace.transport ->
  ?sched:Schedule.kind ->
  ?drop:float ->
  ?dup:float ->
  ?config:Drtree.Config.t ->
  unit ->
  Trace.t
(** A random trace: a prelude of 3 to [nodes] joins, then [ops]
    weighted random operations (joins and corruptions are the most
    frequent), run under [config] (default {!Drtree.Config.default}).
    The overlay seed is drawn from [rng]. *)

val fuzz :
  ?probes:int ->
  traces:int ->
  gen:(int -> Trace.t) ->
  unit ->
  (int * Trace.t * failure) option
(** Run up to [traces] generated traces, stopping early at the first
    failure (returned with its index). *)
