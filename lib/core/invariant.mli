(** Legal-state checker (Definition 3.1) and shape accounting
    (Lemma 3.1).

    A configuration is legitimate iff the virtual structure defined by
    the parent variables and children sets is a legal DR-tree:

    - every non-root, non-leaf instance has between [m] and [M]
      children; the root instance, when interior, has at least 2;
    - parent and children variables are mutually coherent;
    - no member offers a better cover than its set holder;
    - every interior MBR is the union of its members' MBRs;

    plus the structural facts the paper leaves implicit: a unique
    root, every live process reachable from it, and intact self-chains
    (a process is its own child at every level where it is active).

    Under a sharded forest (DESIGN.md §14) every clause is scoped to
    the process's home shard: root uniqueness and reachability hold
    per shard, and two cross-shard clauses are added — no parent edge
    and no child membership may cross a shard boundary. With one shard
    these extra clauses are vacuous and the output is byte-identical
    to the single-tree checker's. *)

type violation = {
  node : Sim.Node_id.t;
  height : int;
  shard : int option;
      (** Home shard of [node]; [None] on a single-tree overlay
          (forest [Single] or one shard), keeping pre-forest output
          unchanged. *)
  what : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check : Overlay.t -> violation list
(** All violations of the legal state, in deterministic order; [[]]
    iff legitimate. An empty overlay is legitimate. *)

val is_legal : Overlay.t -> bool
(** [check] is empty. Pass to {!Overlay.stabilize}. *)

val check_at : Overlay.t -> Sim.Node_id.t -> int -> violation list
(** The Definition-3.1 clauses of one (process, height) instance only
    — the unit {!check} sweeps over all of, minus the global facts
    (root uniqueness, reachability from the root) that no single
    instance owns. [[]] when the process is dead or inactive at [h]. *)

val height : Overlay.t -> int
(** Height of the DR-tree, from the root instance ([0] = single
    node). *)

val max_memory_words : Overlay.t -> int
(** Maximum {!State.memory_words} over live processes (Lemma 3.1's
    per-node memory complexity). *)

val mean_memory_words : Overlay.t -> float

val max_degree : Overlay.t -> int
(** Largest children set in the overlay. *)

val weak_containment_violations : Overlay.t -> int
(** Property 3.1 violations: pairs [(s1, s2)] where [s1]'s filter is
    {e strictly} contained in [s2]'s and yet the topmost instance of
    the containee [s1] is a proper ancestor of the topmost instance
    of its container [s2]. The root-election mechanism guarantees 0. *)

val strong_containment_violations : Overlay.t -> int
(** Property 3.2 violations: containees [s1] (strictly contained in at
    least one other filter) such that {e no} container of [s1] has its
    topmost instance as an ancestor or sibling of [s1]'s topmost
    instance. The paper notes insertion/removal order may occasionally
    violate this one. *)
