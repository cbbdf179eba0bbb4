(** The five stabilization modules (Figs. 10–14), each written once.

    The detection side of the four {e local} modules (CHECK_MBR,
    CHECK_CHILDREN, CHECK_PARENT, CHECK_COVER) is parameterized over
    an {!Access.t} view, so the shared-state and message-passing
    stabilization modes run the same protocol body and differ only in
    how neighbor state is observed. The multi-party transactions —
    role exchange, compaction, member moves — always commit against
    live state ([Access.net]): their two-phase-commit machinery is
    orthogonal to the paper, so they stay atomic locked exchanges in
    both modes. Each check records a {!Telemetry.repair} action when
    (and only when) it mutates state. *)

val update_underloaded : Config.t -> State.level -> unit

val mark_up : Access.net -> State.t -> int -> unit
(** Mark the holder of the set containing [sp]'s instance at height
    [h] dirty at [h + 1] (an MBR change at [h] invalidates the union
    one level up): [sp] itself below its top, the external parent at
    the top, nobody when [sp] is the root. *)

val compute_mbr : Access.net -> State.t -> int -> unit
(** Compute_MBR (Fig. 7): the instance MBR is the union of the
    children MBRs; unreadable children are left out (CHECK_CHILDREN
    evicts them). *)

val is_better_mbr_cover : Access.net -> State.t -> Sim.Node_id.t -> int -> bool

val adjust_parent : Access.net -> State.t -> Sim.Node_id.t -> int -> unit
(** Adjust_Parent(p, q, h): member [q] and holder [p] exchange
    positions, cascading over [p]'s whole self-chain from [h] up.
    @raise Invalid_argument if [q] is dead ([confirm_alive] first). *)

val check_mbr : Access.t -> int -> unit
(** Fig. 10: repair the MBR value. *)

val check_children : Access.t -> int -> unit
(** Fig. 12: evict children that are dead, inactive at the child
    height, or claimed by another parent; refresh the underloaded
    flag. *)

val check_parent : Access.t -> int -> unit
(** Fig. 11: a top instance absent from its parent's children set
    becomes self-parented and re-joins through the contact oracle;
    lower instances of the self-chain are repaired locally. *)

val check_cover : Access.t -> int -> unit
(** Fig. 13: if some member covers more than the holder's own member
    instance, they exchange positions ({!adjust_parent}). *)

val check_structure : Access.net -> State.t -> int -> unit
(** Fig. 14: compact underloaded members pairwise, dispatch members
    of unmergeable sets to unsaturated siblings, dissolve unplaceable
    subtrees (their processes re-join). Direct-only: compaction is a
    multi-party transaction over live state in both modes. *)

val cover_sweep : Access.net -> State.t -> int -> unit
(** Post-join/post-leave COVER_SWEEP up the ancestor path (the
    Lemma 3.2/3.4 repair), re-resolving the holder at each height. *)

(** {2 Compaction helpers (exposed for property tests)} *)

val best_set_cover :
  Access.net -> Sim.Node_id.t -> Sim.Node_id.t -> int -> Sim.Node_id.t
(** Best_Set_Cover: of the two merge candidates, the one whose own
    filter leaves the least of the merged set uncovered (ties keep
    the first argument). *)

val search_compaction_candidate :
  Access.net -> State.t -> Sim.Node_id.t -> int ->
  (Sim.Node_id.t * float) option
(** Search_Compaction_Candidate: a sibling of [q] (under holder [sp]
    at height [hs]) whose member set can absorb [q]'s without
    exceeding [max_fill], minimizing the merged MBR area; [None] when
    no sibling is feasible. *)

val merge_children : Access.net -> Sim.Node_id.t -> Sim.Node_id.t -> int -> unit
