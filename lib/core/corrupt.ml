module Rect = Geometry.Rect
module Node_id = Sim.Node_id
module Rng = Sim.Rng

let random_level rng s = Rng.int rng (State.top s + 1)

let random_interior_level rng s =
  if State.top s < 1 then None else Some (1 + Rng.int rng (State.top s))

let random_id ov rng =
  (* Any id in [0, spawned + 4): includes dead processes and ids that
     never existed, as arbitrary corruption should. *)
  let bound = max 1 (Sim.Engine.spawned_count (Overlay.engine ov) + 4) in
  Rng.int rng bound

let with_state ov victim f =
  match Overlay.state ov victim with
  | Some s when Overlay.is_alive ov victim -> f s
  | Some _ | None -> false

(* A faulty process cannot be assumed to report its own corruption,
   but the paper's transient-fault model (§3.3) lets the detection
   side observe the damaged variables: with [mark] (the default) each
   primitive flags the mutated instance — and the neighbors whose
   CHECK_* guards can see the inconsistency — the way any in-protocol
   write path would. [~mark:false] models truly silent corruption:
   nothing is flagged, and only a round's sweep can find it. *)

let parent ?(mark = true) ov rng victim =
  with_state ov victim (fun s ->
      let h = random_level rng s in
      let l = State.level_exn s h in
      let old_parent = l.State.parent in
      let fresh = random_id ov rng in
      l.State.parent <- fresh;
      if mark then begin
        let net = Overlay.access ov in
        Access.mark net victim h;
        Access.mark net old_parent (h + 1);
        Access.mark net fresh (h + 1)
      end;
      true)

let children ?(mark = true) ov rng victim =
  with_state ov victim (fun s ->
      match random_interior_level rng s with
      | None -> false
      | Some h ->
          let l = State.level_exn s h in
          let old_children = l.State.children in
          let n = Rng.int rng 5 in
          let ids = List.init n (fun _ -> random_id ov rng) in
          let base =
            if Rng.bool rng then Node_id.Set.singleton victim
            else Node_id.Set.empty
          in
          l.State.children <-
            List.fold_left (fun acc c -> Node_id.Set.add c acc) base ids;
          if mark then begin
            let net = Overlay.access ov in
            Access.mark net victim h;
            Node_id.Set.iter
              (fun c -> Access.mark net c (h - 1))
              old_children;
            Node_id.Set.iter
              (fun c ->
                if not (Node_id.Set.mem c old_children) then
                  Access.mark net c (h - 1))
              l.State.children;
            Repair.mark_up net s h
          end;
          true)

let mbr ?(mark = true) ov rng victim =
  with_state ov victim (fun s ->
      let h = random_level rng s in
      let x0 = Rng.range rng (-100.0) 100.0
      and y0 = Rng.range rng (-100.0) 100.0 in
      let x1 = x0 +. Rng.float rng 50.0 and y1 = y0 +. Rng.float rng 50.0 in
      (State.level_exn s h).State.mbr <- Rect.make2 ~x0 ~y0 ~x1 ~y1;
      if mark then begin
        let net = Overlay.access ov in
        Access.mark net victim h;
        Repair.mark_up net s h
      end;
      true)

let underloaded ?(mark = true) ov rng victim =
  with_state ov victim (fun s ->
      match random_interior_level rng s with
      | None -> false
      | Some h ->
          let l = State.level_exn s h in
          l.State.underloaded <- not l.State.underloaded;
          if mark then Access.mark (Overlay.access ov) victim h;
          true)

let any ?(mark = true) ov rng victim =
  match Rng.int rng 4 with
  | 0 -> parent ~mark ov rng victim
  | 1 -> children ~mark ov rng victim
  | 2 -> mbr ~mark ov rng victim
  | _ -> underloaded ~mark ov rng victim

let random_victims ov rng ~fraction =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Corrupt.random_victims: fraction outside [0, 1]";
  let ids = Overlay.alive_ids ov in
  let n = List.length ids in
  let k = int_of_float (ceil (fraction *. float_of_int n)) in
  let k = min k n in
  List.filteri (fun i _ -> i < k) (Rng.shuffle rng ids)
