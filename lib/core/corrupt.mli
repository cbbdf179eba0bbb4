(** Fault injection: transient memory corruption.

    The paper's fault model lets every variable except the constant
    subscription filter take an arbitrary value (§3, §3.3). Each
    function below corrupts one class of variables at a victim process
    and returns whether anything was corrupted (the victim may be dead
    or inactive at the chosen level). The stabilization modules must
    recover (Lemma 3.6); the E7 experiment and the failure-injection
    tests drive these.

    By default every primitive also marks the damaged (process,
    height) entries — the victim's instance plus the neighbors whose
    CHECK_* guards observe the inconsistency — through
    [Overlay.mark_dirty], as any in-protocol write would, so
    [Overlay.stabilize] keeps running rounds. Pass [~mark:false] for
    {e silent} corruption: nothing is marked, the next round's sweep
    still repairs it, and [Overlay.stabilize] finds it on a quiescent
    tree with one legality check. *)

val parent : ?mark:bool -> Overlay.t -> Sim.Rng.t -> Sim.Node_id.t -> bool
(** Set the parent pointer of a random active instance of the victim
    to a random process id (possibly dead or nonsense). *)

val children : ?mark:bool -> Overlay.t -> Sim.Rng.t -> Sim.Node_id.t -> bool
(** Replace the children set of a random interior instance with a
    random subset of process ids (may drop members, add strangers, or
    both). The victim stays in its own set half of the time — the
    repair must handle both. *)

val mbr : ?mark:bool -> Overlay.t -> Sim.Rng.t -> Sim.Node_id.t -> bool
(** Replace the MBR of a random instance with a random rectangle. *)

val underloaded : ?mark:bool -> Overlay.t -> Sim.Rng.t -> Sim.Node_id.t -> bool
(** Flip the underloaded flag of a random interior instance. *)

val any : ?mark:bool -> Overlay.t -> Sim.Rng.t -> Sim.Node_id.t -> bool
(** One of the above, chosen uniformly. *)

val random_victims : Overlay.t -> Sim.Rng.t -> fraction:float -> Sim.Node_id.t list
(** A uniform sample of ceil(fraction * live) victims. *)
