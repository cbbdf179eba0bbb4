(** Selective event dissemination (§3) and the §3.2 dynamic
    reorganization driven by its false-positive counters. *)

type report = {
  event_id : int;
  matched : Sim.Node_id.Set.t;
  delivered : Sim.Node_id.Set.t;
  received : Sim.Node_id.Set.t;
  false_positives : int;
  false_negatives : int;
  messages : int;
  max_hops : int;
}

val handle_publish :
  Access.net -> Message.t Sim.Engine.ctx -> State.t -> event_id:int ->
  point:Geometry.Point.t -> at:int -> from_child:Sim.Node_id.t option ->
  going_up:bool -> hops:int -> unit

val publish :
  Access.net -> run:(unit -> unit) -> from:Sim.Node_id.t ->
  Geometry.Point.t -> report
(** Disseminate an event and report accuracy and cost ([run] drains
    the engine).
    @raise Invalid_argument if [from] is not alive. *)

val fp_swap_round : Access.net -> int
(** One reorganization pass over the accumulated false-positive
    counters; returns the number of role swaps and clears the
    counters. *)
