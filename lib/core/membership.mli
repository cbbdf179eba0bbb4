(** Join (Fig. 8), leave (Fig. 9) and subtree re-entry (Fig. 14's
    INITIATE_NEW_CONNECTION).

    The [handle_*] functions are message handlers: {!Overlay.handle}
    dispatches into them with the executor already set. The departure
    drivers only queue protocol messages; the facade kills the node
    and runs the engine. *)

val handle_add_child :
  Access.net -> State.t -> Sim.Node_id.t -> Geometry.Rect.t -> int -> int ->
  unit
(** [handle_add_child net sp child mbr hq hops]: ADD_CHILD at the set
    holder one height above [hq] — adjusts children or splits
    (Fig. 8), growing/forwarding as needed. *)

val handle_join :
  Access.net -> Message.t Sim.Engine.ctx -> State.t ->
  joiner:Sim.Node_id.t -> mbr:Geometry.Rect.t -> height:int ->
  phase:[ `Up | `Down of int ] -> hops:int -> unit

val handle_leave : Access.net -> State.t -> who:Sim.Node_id.t -> height:int ->
  unit

val handle_initiate_new_connection : Access.net -> State.t -> int -> unit

val leave_notify : Access.net -> Sim.Node_id.t -> unit
(** Queue the Fig. 9 LEAVE notification toward the topmost parent (the
    lazy variant: the orphaned subtree waits for stabilization). *)

val leave_handover : Access.net -> Sim.Node_id.t -> unit
(** Queue the §3.2 efficient-departure handover: root role to the
    largest-MBR member if departing as root, then each held subtree as
    a JOIN toward the surviving parent, then the LEAVE notification. *)
