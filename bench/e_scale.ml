(* Scale stress: build cost and tree shape at laptop-scale N.
   Registration lives in [Experiments.register]. *)

module O = Drtree.Overlay
module Inv = Drtree.Invariant
module Rng = Sim.Rng
module Sg = Workload.Subscription_gen
module Eg = Workload.Event_gen
module Table = Stats.Table
open Harness

(* --- E23: laptop-scale stress ------------------------------------------- *)

(* The top of this range runs on the flat layout (DESIGN.md
   §11, the library default); override the populations for a CI smoke
   run with e.g. DRTREE_E23_SIZES=1024,4096. *)
let e23_sizes () =
  sizes_of_env "DRTREE_E23_SIZES"
    ~default:[ 1024; 2048; 4096; 8192; 16384; 65536 ]

let e23 () =
  let table =
    Table.create ~title:"E23  scale: build cost and shape up to N=65536"
      ~columns:
        [
          "N"; "build s"; "join msgs"; "height"; "FP %"; "msgs/event";
          "max words";
        ]
  in
  List.iter
    (fun n ->
      let rng = Rng.make (23000 + n) in
      let rects = Sg.uniform () space rng n in
      let ov = O.create ~seed:(23 + n) () in
      let t0 = now () in
      List.iter (fun r -> ignore (O.join ov r)) rects;
      ignore (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov);
      let dt = now () -. t0 in
      let build_msgs = Sim.Engine.messages_sent (O.engine ov) in
      let acc = run_events ov ~rng (Eg.uniform space rng 100) in
      Table.add_rowf table "%d|%.2f|%d|%d|%.2f|%.1f|%d" n dt build_msgs
        (O.height ov) (pct acc.fp_rate) acc.msgs_per_event
        (Inv.max_memory_words ov))
    (e23_sizes ());
  Table.print table
