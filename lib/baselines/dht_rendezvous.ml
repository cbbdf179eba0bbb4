module Rect = Geometry.Rect
module Point = Geometry.Point
module Zorder = Geometry.Zorder
module Int_set = Report.Int_set

type t = {
  grid : Zorder.t;
  exact : bool;
  cells : (int, (int * Rect.t) list ref) Hashtbl.t;
      (** Z-key -> registrations at the rendezvous owning the key *)
  rects : (int, Rect.t) Hashtbl.t;
  mutable next : int;
  mutable reg_messages : int;
}

let create ?(bits_per_dim = 4) ?(exact = false) ~space () =
  {
    grid = Zorder.create ~bits_per_dim ~space ();
    exact;
    cells = Hashtbl.create 256;
    rects = Hashtbl.create 64;
    next = 0;
    reg_messages = 0;
  }

let size t = Hashtbl.length t.rects

let lookup_hops t =
  let n = size t in
  if n < 2 then 0
  else int_of_float (Float.ceil (log (float_of_int n) /. log 2.0))

let add t r =
  let id = t.next in
  t.next <- id + 1;
  Hashtbl.replace t.rects id r;
  let keys = Zorder.rect_keys t.grid r in
  List.iter
    (fun key ->
      let regs =
        match Hashtbl.find_opt t.cells key with
        | Some regs -> regs
        | None ->
            let regs = ref [] in
            Hashtbl.replace t.cells key regs;
            regs
      in
      regs := (id, r) :: !regs;
      t.reg_messages <- t.reg_messages + max 1 (lookup_hops t))
    keys;
  id

let remove t id =
  Hashtbl.remove t.rects id;
  Hashtbl.iter
    (fun _ regs -> regs := List.filter (fun (rid, _) -> rid <> id) !regs)
    t.cells

let publish t ~from point =
  let matched =
    Hashtbl.fold
      (fun id r acc ->
        if Rect.contains_point r point then Int_set.add id acc else acc)
      t.rects Int_set.empty
  in
  let key = Zorder.point_key t.grid point in
  let route_hops = max 1 (lookup_hops t) in
  let registrants =
    match Hashtbl.find_opt t.cells key with Some regs -> !regs | None -> []
  in
  let targets =
    if t.exact then
      List.filter (fun (_, r) -> Rect.contains_point r point) registrants
    else registrants
  in
  let received =
    List.fold_left
      (fun acc (id, _) -> Int_set.add id acc)
      (Int_set.singleton from) targets
  in
  let messages = route_hops + List.length targets in
  Report.make ~matched ~received ~publisher:from ~messages
    ~max_hops:(route_hops + 1)

let registration_messages t = t.reg_messages

let max_registrations t =
  Hashtbl.fold (fun _ regs acc -> max acc (List.length !regs)) t.cells 0
