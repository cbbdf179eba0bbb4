(** Operation traces: the fuzzer's input format and the on-disk
    counterexample format ([repro/*.trace]).

    A trace is a complete, self-contained description of one adversarial
    execution: overlay configuration, schedule strategy (with fault
    rates), a {e prelude} of initial joins that builds the tree, and a
    list of dynamic operations. Replaying a trace is deterministic — the
    overlay seed and the strategy seed both derive from [seed].

    The prelude is separate from the op list because the interesting
    part of a counterexample is usually the dynamic suffix: the shrinker
    minimizes both, and reports them separately. *)

type mode = Shared | Message_passing

val mode_to_string : mode -> string
val mode_of_string : string -> (mode, string) result

type transport = Inproc | Wire
(** Which {!Sim.Transport} the replayed overlay runs on. [Wire] routes
    every inter-process message through {!Drtree.Message.Codec}, so a
    trace also model-checks the serialization boundary: any decode
    failure during the run is a counterexample. Traces without a
    [transport] line parse as [Inproc]. *)

val transport_to_string : transport -> string
val transport_of_string : string -> (transport, string) result

type op =
  | Join of Geometry.Rect.t
  | Leave of int
      (** controlled departure of the [i mod n]-th live process (id
          order); skipped when fewer than 3 remain *)
  | Crash of int  (** silent death, same victim selection as [Leave] *)
  | Corrupt of int * int
      (** [Corrupt (victim, seed)]: one random state corruption
          ({!Drtree.Corrupt.any}) driven by its own sub-seed *)
  | Publish of Geometry.Point.t  (** publish from the lowest live id *)
  | Stabilize of int  (** run [k] stabilization rounds *)
  | Agg_query of Drtree.Message.agg_fn * Geometry.Rect.t
      (** register a standing aggregate query (tct 0, owned by the
          lowest live id), inject seeded integer-valued readings, run
          one epoch; under strict schedules from a legal state the
          result must equal the brute-force oracle *)

type t = {
  seed : int;
  mode : mode;
  transport : transport;
  sched : Schedule.kind;
  drop : float;
  dup : float;
  config : Drtree.Config.t;
      (** the replayed overlay's configuration, run as is. Traces
          without a [config] line parse as {!Drtree.Config.default}.
          [cover_sweep = false] plants the known cover-sweep bug. Under
          a [Heartbeat _] detector (DESIGN.md §13) the fuzzer attaches
          [Fd.Runtime], injects [Crash] ops {e silently}
          ({!Drtree.Overlay.crash_silent}) and additionally asserts the
          crash-convergence property — see {!Fuzz}. *)
  prelude : Geometry.Rect.t list;
  ops : op list;
}

val default : t
(** Seed 1, shared mode, inproc transport, FIFO schedule, no faults,
    {!Drtree.Config.default}, empty prelude and ops. *)

val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit

(** {2 Codec}

    Line-oriented text under a [drtree-trace v2] header. The
    configuration is one [config] line in {!Drtree.Config.to_string}'s
    form; other floats are printed with [%.17g]. Every float
    round-trips exactly: [of_string (to_string t)] re-reads [t]
    unchanged. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val save : string -> t -> unit
val load : string -> (t, string) result
