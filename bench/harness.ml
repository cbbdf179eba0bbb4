(* Shared machinery for the experiment harness: overlay construction
   from workloads, accuracy/cost accumulation over event batches, and
   a tiny experiment registry. *)

module R = Geometry.Rect
module P = Geometry.Point
module O = Drtree.Overlay
module Inv = Drtree.Invariant
module Rng = Sim.Rng

let space = Workload.Space.default
let n_sweep = [ 64; 128; 256; 512; 1024; 2048 ]

(* CI smoke runs override an experiment's population ladder through
   its DRTREE_E*_SIZES variable — a comma-separated size list (blank
   or non-integer entries are ignored). One parser for every
   experiment that offers the knob, so the ladders cannot drift. *)
let sizes_of_env var ~default =
  match Sys.getenv_opt var with
  | None -> default
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun w -> int_of_string_opt (String.trim w))
let log_base b x = log x /. log b

let now () = Sim.Clock.now ()
(* Monotonic wall clock for build/stabilize timings. [Sys.time] is
   {e CPU} time and saturates coarsely on some platforms, and
   [Unix.gettimeofday] can step backwards under NTP adjustment —
   phase timings must come from a clock that only moves forward. *)

(* Build an overlay from a subscription workload and stabilize it.
   [transport] defaults to the engine's [Inproc]; the wire transport
   never changes a run's schedule (no extra randomness), only adds
   byte accounting, so experiments opt in where bytes are reported. *)
let build_overlay ?(cfg = Drtree.Config.default) ?transport ~seed rects =
  let ov = O.create ~cfg ?transport ~seed () in
  List.iter (fun r -> ignore (O.join ov r)) rects;
  ignore (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov);
  ov

type accuracy = {
  events : int;
  fp_total : int;
  fn_total : int;
  fp_rate : float;  (** false positives / (events × subscribers) *)
  delivery_total : int;
  msgs_per_event : float;
  mean_hops : float;
  max_hops : int;
}

(* Publish a batch of events from random publishers and accumulate
   accuracy and cost. *)
let run_events ov ~rng points =
  let ids = O.alive_ids ov in
  let n = List.length ids in
  let fp = ref 0 and fn = ref 0 and msgs = ref 0 in
  let hops_sum = ref 0 and hops_max = ref 0 and delivered = ref 0 in
  let count = ref 0 in
  List.iter
    (fun p ->
      let from = Rng.pick rng ids in
      let report = O.publish ov ~from p in
      incr count;
      fp := !fp + report.O.false_positives;
      fn := !fn + report.O.false_negatives;
      msgs := !msgs + report.O.messages;
      hops_sum := !hops_sum + report.O.max_hops;
      hops_max := max !hops_max report.O.max_hops;
      delivered := !delivered + Sim.Node_id.Set.cardinal report.O.delivered)
    points;
  let events = !count in
  {
    events;
    fp_total = !fp;
    fn_total = !fn;
    fp_rate =
      (if events = 0 || n = 0 then 0.0
       else float_of_int !fp /. float_of_int (events * n));
    delivery_total = !delivered;
    msgs_per_event =
      (if events = 0 then 0.0 else float_of_int !msgs /. float_of_int events);
    mean_hops =
      (if events = 0 then 0.0
       else float_of_int !hops_sum /. float_of_int events);
    max_hops = !hops_max;
  }

let pct x = 100.0 *. x

(* --- Experiment registry -------------------------------------------------- *)

type experiment = { id : string; title : string; run : unit -> unit }

let registry : experiment list ref = ref []
let register id title run = registry := { id; title; run } :: !registry
let all () = List.rev !registry

let run_selected ids =
  let selected =
    match ids with
    | [] -> all ()
    | ids ->
        List.filter
          (fun e -> List.mem (String.lowercase_ascii e.id) ids)
          (all ())
  in
  List.iter
    (fun e ->
      Format.printf "@.=== %s: %s ===@.@." e.id e.title;
      e.run ())
    selected
