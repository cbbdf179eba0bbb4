(* Soak test: a large overlay through a long mixed lifetime —
   growth, publication load, churn waves, corruption storms, partial
   drain — asserting the paper's guarantees at every checkpoint. *)

module R = Geometry.Rect
module P = Geometry.Point
module O = Drtree.Overlay
module Inv = Drtree.Invariant
module Rng = Sim.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let random_rect rng =
  let x0 = Rng.range rng 0.0 95.0 and y0 = Rng.range rng 0.0 95.0 in
  let w = Rng.range rng 0.5 8.0 and h = Rng.range rng 0.5 8.0 in
  R.make2 ~x0 ~y0 ~x1:(x0 +. w) ~y1:(y0 +. h)

let random_point rng =
  P.make2 (Rng.range rng 0.0 100.0) (Rng.range rng 0.0 100.0)

let checkpoint ov rng label =
  check_bool (label ^ ": legal") true (Inv.is_legal ov);
  check_bool (label ^ ": bounded degree") true
    (Inv.max_degree ov <= (O.cfg ov).Drtree.Config.max_fill);
  let ids = O.alive_ids ov in
  if ids <> [] then begin
    let fn = ref 0 in
    for _ = 1 to 25 do
      let rep = O.publish ov ~from:(Rng.pick rng ids) (random_point rng) in
      fn := !fn + rep.O.false_negatives
    done;
    check_int (label ^ ": zero FN") 0 !fn
  end

let test_lifetime () =
  let rng = Rng.make 4242 in
  let ov = O.create ~seed:4242 () in
  let stabilize () =
    check_bool "stabilizes" true
      (O.stabilize ~max_rounds:150 ~legal:Inv.is_legal ov <> None)
  in

  (* Phase 1: grow to 600 subscribers. *)
  for _ = 1 to 600 do
    ignore (O.join ov (random_rect rng))
  done;
  stabilize ();
  checkpoint ov rng "after growth";
  check_bool "height sane" true (O.height ov <= 12);

  (* Phase 2: sustained publication load. *)
  let ids = O.alive_ids ov in
  let fp_total = ref 0 in
  for _ = 1 to 500 do
    let rep = O.publish ov ~from:(Rng.pick rng ids) (random_point rng) in
    check_int "fn during load" 0 rep.O.false_negatives;
    fp_total := !fp_total + rep.O.false_positives
  done;
  let fp_rate = float_of_int !fp_total /. float_of_int (500 * 600) in
  check_bool
    (Printf.sprintf "fp rate %.2f%% below 5%%" (100.0 *. fp_rate))
    true (fp_rate < 0.05);

  (* Phase 3: three churn waves (crashes + joins + corruption). *)
  for wave = 1 to 3 do
    let victims = Drtree.Corrupt.random_victims ov rng ~fraction:0.15 in
    List.iteri
      (fun i v ->
        if i mod 3 = 0 then O.crash ov v
        else if i mod 3 = 1 then O.leave ov v
        else ignore (Drtree.Corrupt.any ov rng v))
      victims;
    for _ = 1 to 30 do
      ignore (O.join ov (random_rect rng))
    done;
    stabilize ();
    checkpoint ov rng (Printf.sprintf "after wave %d" wave)
  done;

  (* Phase 4: drain down to a tenth, with reconnection leaves. *)
  let target = O.size ov / 10 in
  while O.size ov > target do
    let id = List.hd (O.alive_ids ov) in
    if O.size ov mod 2 = 0 then O.leave ov id else O.leave_reconnect ov id;
    if O.size ov mod 25 = 0 then stabilize ()
  done;
  stabilize ();
  checkpoint ov rng "after drain";

  (* Phase 5: regrow and finish. *)
  for _ = 1 to 200 do
    ignore (O.join ov (random_rect rng))
  done;
  stabilize ();
  checkpoint ov rng "after regrowth"

let () =
  Alcotest.run "soak"
    [
      ( "lifetime",
        [
          Alcotest.test_case "600-node mixed lifetime" `Slow test_lifetime;
        ] );
    ]
