(** DR-tree configuration.

    [min_fill] and [max_fill] are the paper's [m] and [M]: every
    non-root interior instance keeps between [m] and [M] children, and
    [M >= 2m] so splits can produce two legal groups (§3.2). *)

type oracle =
  | Root_oracle  (** the contact node is the current root (§3.2: "the
                     odds of finding a good position are best when
                     starting from the root") *)
  | Random_oracle  (** a uniformly random live node; the join is then
                      redirected upward to the root as per §3.2 *)

(** How {!State} and {!Access} store the per-(process, height) variables
    (DESIGN.md §11). The two layouts are observationally identical — the
    layout-differential harness in [lib/mck] proves equal verdicts,
    membership, telemetry and byte accounting on every trace — so the
    choice is purely a performance knob. *)
type layout =
  | Hashed
      (** the seed realization: a hashtable of processes, each holding a
          hashtable of per-height level records — the pre-refactor
          semantics, kept as the differential baseline *)
  | Flat
      (** contiguous arrays: per-process dense level arrays delimited
          by [top], and the process store itself an array indexed by
          process id — O(1) un-hashed access on every hot read, the
          layout that carries N = 10⁵+ (E23) *)

(** How the overlay learns about departures (DESIGN.md §13). The paper
    assumes crashes are {e known}; [Oracle] models that assumption,
    [Heartbeat] removes it. *)
type detector =
  | Oracle
      (** the seed model: [Overlay.crash]/[leave] mark the departed
          process's neighborhood from the outside, as if a global
          observer announced every departure. Bit-identical to the
          pre-detector behavior — no detector message is ever sent. *)
  | Heartbeat of { period : float; timeout_factor : int; fallbacks : int }
      (** local failure detection ([lib/fd]): every process sends
          [Heartbeat] messages each [period] of simulated time to its
          tree neighbors plus [fallbacks] ring successors/predecessors
          (chord-style fallback contacts), suspects a monitored peer
          after [timeout_factor] silent periods (challenging it with a
          [Suspect] message), and on a confirmed timeout initiates the
          departure locally — feeding the same [Access.mark] path the
          oracle used, with no global knowledge involved. *)

val default_heartbeat : detector
(** [Heartbeat {period = 1.0; timeout_factor = 3; fallbacks = 2}]. *)

(** How many independent DR-trees the overlay maintains (DESIGN.md
    §14). [Single] is the paper's model — one global tree, one
    designated root — and stays bit-identical to the pre-forest
    system: the forest-differential harness in [lib/mck] proves exact
    verdict, shape and fingerprint equality of [Sharded {shards = 1}]
    vs [Single] on every trace. [Sharded] partitions the space by
    Z-order into [shards] contiguous key ranges; each shard is its own
    DR-tree with its own designated root, election scope and CHECK_*
    sweep, and publish fans out to every other shard whose root MBR
    contains the event. *)
type forest = Single | Sharded of { shards : int }

val max_shards : int
(** Upper bound on [Sharded] shard counts (4096): beyond the Z-order
    grid's cell count a shard would own no region. *)

type t = {
  min_fill : int;  (** m *)
  max_fill : int;  (** M *)
  split : Rtree.Split.kind;  (** children-set split policy (§3.2) *)
  oracle : oracle;
  cover_sweep : bool;
      (** run the post-join/post-leave COVER_SWEEP up the ancestor path
          (the Lemma 3.2/3.4 repair — see DESIGN.md §3). [true] in any
          faithful configuration; setting it [false] {e plants a known
          protocol bug} so the model-checking harness can prove it
          detects, shrinks and replays real legality violations. *)
  publish_ttl : int;
      (** Transport-level hop budget for forwarded traffic (event
          dissemination, join routing, ADD_CHILD redirection). Under
          arbitrary corruption parent pointers may form cycles; the
          budget keeps every forwarding path terminating. It is never
          reached in legal states, where hop counts are bounded by the
          tree height, so the default (128) is far above any
          realistic height and does not affect correct executions. *)
  seen_capacity : int;
      (** Capacity of the per-process event-dedup window
          ({!State.mark_seen}): the oldest entries are evicted beyond
          it, keeping long-lived processes' memory flat. Event ids are
          monotonically increasing and redelivery windows are short
          (one dissemination), so a few thousand suffices. *)
  layout : layout;
  detector : detector;
      (** Departure-detection model. [Oracle] (the default) is the
          paper's known-crash assumption and is bit-identical to the
          pre-detector system; [Heartbeat] attaches [lib/fd]'s local
          heartbeat/timeout detector (DESIGN.md §13). *)
  forest : forest;
      (** Rendezvous topology (DESIGN.md §14). [Single] (the default)
          is the paper's one-tree model and is bit-identical to the
          pre-forest system; [Sharded {shards}] maintains one DR-tree
          per Z-order shard of the space, each with its own designated
          root and election/repair scope. *)
}

val default : t
(** [m = 2], [M = 4], quadratic split, root oracle, cover sweep on,
    [publish_ttl = 128], [seen_capacity = 4096], flat layout, oracle
    detector, single forest. *)

val validate : t -> (t, string) result
(** [Ok c] if [c] is a legal configuration, else [Error] naming the
    first violated bound: [min_fill < 2], [max_fill < 2 * min_fill]
    ([m >= 2] keeps interior nodes binary or wider, matching the R-tree
    root rule), [publish_ttl < 1], [seen_capacity < 1], a [Heartbeat]
    detector with [period <= 0], [timeout_factor < 1] or
    [fallbacks < 0], or a [Sharded] forest with [shards] outside
    [1 .. max_shards]. *)

val make :
  ?min_fill:int ->
  ?max_fill:int ->
  ?split:Rtree.Split.kind ->
  ?oracle:oracle ->
  ?cover_sweep:bool ->
  ?publish_ttl:int ->
  ?seen_capacity:int ->
  ?layout:layout ->
  ?detector:detector ->
  ?forest:forest ->
  unit ->
  t
(** @raise Invalid_argument if {!validate} rejects the result. *)

(** {2 The knob table}

    One row per field of {!t}, in declaration order. The rows drive
    {!to_string} and {!of_string}, the CLI's flags ([--NAME VALUE] for
    each row, plus [--config STRING]) and the [config] line of
    [Mck.Trace] files, so a knob's text form is written only here. *)

type field = {
  name : string;  (** the key: [min-fill], [max-fill], ..., [forest] *)
  docv : string;  (** the value's shape, for usage text *)
  doc : string;
  print : t -> string;  (** the field's value text *)
  parse : string -> (t -> t, string) result;
      (** the value text to an update of the field; checks syntax only,
          range checks are {!validate}'s *)
}

val fields : field list

val to_string : t -> string
(** Space-separated [name=value] pairs, every field in table order.
    Floats print in the shortest form that re-reads exactly, so
    [of_string (to_string c) = Ok c] for every valid [c]. *)

val of_string : string -> (t, string) result
(** Reads [name=value] pairs in any order; a missing key takes its
    {!default}, a later key overrides an earlier one. [detector=heartbeat]
    means {!default_heartbeat}, and [forest=K] means [sharded:K]. An
    unknown key, a malformed value or a configuration {!validate}
    rejects is an [Error]. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
