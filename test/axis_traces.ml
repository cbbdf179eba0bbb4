(* The fixed traces each axis of [Mck.Fuzz.axes] is checked over: a
   plain batch and a wire batch per axis, as (first seed, count,
   generator), and the one loop that runs a batch through
   [Fuzz.differential]. The suite that owns an axis's subject
   (test_state_layout, test_forest) registers the axis's batches with
   [test_cases]; test_mck checks that every axis has some. *)

module Trace = Mck.Trace
module Fuzz = Mck.Fuzz

type batch = { base : int; count : int; gen : Sim.Rng.t -> Trace.t }

let batches =
  [
    ( "layout",
      [
        {
          base = 31_000;
          count = 40;
          gen = (fun rng -> Fuzz.random_trace rng ());
        };
        {
          base = 32_000;
          count = 20;
          gen =
            (fun rng ->
              Fuzz.random_trace rng ~transport:Trace.Wire ~drop:0.1 ());
        };
      ] );
    ( "forest",
      [
        {
          base = 46_000;
          count = 15;
          gen = (fun rng -> Fuzz.random_trace rng ());
        };
        {
          base = 47_000;
          count = 8;
          gen =
            (fun rng ->
              Fuzz.random_trace rng ~transport:Trace.Wire
                ~sched:Mck.Schedule.Random ~drop:0.1 ());
        };
      ] );
  ]

let check (axis : Fuzz.axis) { base; count; gen } =
  for i = 0 to count - 1 do
    let tr = gen (Sim.Rng.make (base + i)) in
    match Fuzz.differential ~probes:2 axis tr with
    | Ok () -> ()
    | Error msg ->
        Alcotest.failf "%s divergence on seed %d: %s@.%a" axis.name (base + i)
          msg Trace.pp tr
  done

(* One case per batch of axis [name], named "<count> <label>" with the
   labels in batch order. *)
let test_cases name labels =
  let axis = List.find (fun (a : Fuzz.axis) -> a.name = name) Fuzz.axes in
  List.map2
    (fun b label ->
      Alcotest.test_case
        (Printf.sprintf "%d %s" b.count label)
        `Quick
        (fun () -> check axis b))
    (List.assoc name batches) labels
