module Rect = Geometry.Rect
module Point = Geometry.Point
module Zorder = Geometry.Zorder
module Int_set = Report.Int_set
module Ring = Chord.Ring

type t = {
  ring : Ring.t;
  grid : Zorder.t;
  exact : bool;
  rects : (int, Rect.t) Hashtbl.t;  (** live subscribers *)
  stores : (int, (int, (int * Rect.t) list) Hashtbl.t) Hashtbl.t;
      (** rendezvous state held {e at} each ring node:
          node id -> cell key -> registrations *)
  mutable app_messages : int;
}

let create ?(bits_per_dim = 4) ?(exact = false) ~space ~seed () =
  {
    ring = Ring.create ~seed ();
    grid = Zorder.create ~bits_per_dim ~space ();
    exact;
    rects = Hashtbl.create 64;
    stores = Hashtbl.create 64;
    app_messages = 0;
  }

let size t = Hashtbl.length t.rects
let ring_consistent t = Ring.is_consistent t.ring

(* Spread grid cells uniformly over the 24-bit ring (raw cell keys
   would all land on one short arc). *)
let ring_key cell = Chord.Key.hash_node (cell + 0x5151)

let store_of t owner =
  match Hashtbl.find_opt t.stores owner with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 16 in
      Hashtbl.replace t.stores owner s;
      s

let register t id r =
  List.iter
    (fun key ->
      (* Route to the key owner; one more message carries the
         registration. *)
      match Ring.lookup t.ring ~from:id (ring_key key) with
      | Some (owner, _) ->
          t.app_messages <- t.app_messages + 1;
          let store = store_of t owner in
          let prev =
            match Hashtbl.find_opt store key with Some l -> l | None -> []
          in
          Hashtbl.replace store key ((id, r) :: prev)
      | None -> () (* registration lost to churn *))
    (Zorder.rect_keys t.grid r)

(* Chord's key handoff: when ownership moved (a join shifted a key
   range), the old owner transfers the affected registrations to the
   new one. Dead owners' stores are lost, not transferred. *)
let rehome t =
  let moves = ref [] in
  Hashtbl.iter
    (fun owner store ->
      if Ring.key_of t.ring owner <> None then
        Hashtbl.iter
          (fun cell regs ->
            match Ring.owner_of t.ring (ring_key cell) with
            | Some correct when correct <> owner ->
                moves := (owner, cell, regs, correct) :: !moves
            | Some _ | None -> ())
          store)
    t.stores;
  List.iter
    (fun (owner, cell, regs, correct) ->
      (match Hashtbl.find_opt t.stores owner with
      | Some store -> Hashtbl.remove store cell
      | None -> ());
      t.app_messages <- t.app_messages + 1;
      let dst = store_of t correct in
      let prev =
        match Hashtbl.find_opt dst cell with Some l -> l | None -> []
      in
      Hashtbl.replace dst cell (regs @ prev))
    !moves

let join_subscriber t r =
  let id = Ring.join t.ring in
  (* Let the ring absorb the newcomer, then hand over the key range it
     now owns. *)
  ignore (Ring.stabilize t.ring);
  rehome t;
  Hashtbl.replace t.rects id r;
  register t id r;
  id

let crash t id =
  Ring.crash t.ring id;
  Hashtbl.remove t.rects id
(* the rendezvous state this node held (t.stores) dies with it: reads
   check liveness *)

let repair t =
  ignore (Ring.stabilize t.ring);
  (* Application-level recovery: drop every store and re-register all
     live subscriptions at the current owners. *)
  Hashtbl.reset t.stores;
  Hashtbl.iter (fun id r -> register t id r) t.rects

let publish t ~from point =
  let matched =
    Hashtbl.fold
      (fun id r acc ->
        if Rect.contains_point r point then Int_set.add id acc else acc)
      t.rects Int_set.empty
  in
  let m0 = Ring.messages_sent t.ring + t.app_messages in
  let key = Zorder.point_key t.grid point in
  let received, max_hops =
    match Ring.lookup t.ring ~from (ring_key key) with
    | None -> (Int_set.singleton from, 0)
    | Some (owner, hops) ->
        let regs =
          match Hashtbl.find_opt t.stores owner with
          | None -> []
          | Some store -> (
              match Hashtbl.find_opt store key with
              | Some l -> l
              | None -> [])
        in
        let targets =
          List.filter
            (fun (id, r) ->
              Hashtbl.mem t.rects id
              && ((not t.exact) || Rect.contains_point r point))
            regs
        in
        t.app_messages <- t.app_messages + List.length targets;
        ( List.fold_left
            (fun acc (id, _) -> Int_set.add id acc)
            (Int_set.singleton from) targets,
          hops + 1 )
  in
  let messages = Ring.messages_sent t.ring + t.app_messages - m0 in
  Report.make ~matched ~received ~publisher:from ~messages ~max_hops

let messages_sent t = Ring.messages_sent t.ring + t.app_messages

let reset_counters t =
  Ring.reset_counters t.ring;
  t.app_messages <- 0
