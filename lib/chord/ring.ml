module Node_id = Sim.Node_id
module Engine = Sim.Engine

type msg =
  | Lookup of { target : Key.t; request : int; origin : Node_id.t; hops : int }
  | Lookup_result of { request : int; owner : Node_id.t; hops : int }

type node_state = {
  key : Key.t;
  mutable successors : Node_id.t list;  (** nearest first; never empty *)
  mutable predecessor : Node_id.t option;
  fingers : Node_id.t option array;
}

type t = {
  succ_len : int;
  engine : msg Engine.t;
  states : node_state Node_id.Table.t;
  results : (int, (Node_id.t * int) option) Hashtbl.t;
  mutable next_request : int;
  rng : Sim.Rng.t;
}

let is_alive t id = Engine.is_alive t.engine id

let read t id =
  if is_alive t id then Node_id.Table.find_opt t.states id else None

let alive_ids t =
  List.filter
    (fun id -> Node_id.Table.mem t.states id)
    (Engine.alive_nodes t.engine)

let size t = List.length (alive_ids t)
let key_of t id = Option.map (fun s -> s.key) (read t id)

let sorted_live t =
  List.sort
    (fun (_, a) (_, b) -> Int.compare a b)
    (List.filter_map
       (fun id -> Option.map (fun s -> (id, s.key)) (read t id))
       (alive_ids t))

(* Ground truth: first live key at or after [k] on the circle. *)
let owner_of t k =
  match sorted_live t with
  | [] -> None
  | ((first, _) :: _ : (Node_id.t * Key.t) list) as nodes -> (
      match List.find_opt (fun (_, key) -> key >= k) nodes with
      | Some (id, _) -> Some id
      | None -> Some first)

let first_live_successor t s =
  List.find_opt (fun id -> is_alive t id) s.successors

(* Closest preceding live node for [target] among fingers and
   successors — Chord's routing step. *)
let closest_preceding t s ~self_key ~target =
  let best = ref None in
  let consider id =
    match read t id with
    | Some st when Key.in_open st.key ~lo:self_key ~hi:target -> (
        match !best with
        | Some (_, bk) when Key.distance bk target <= Key.distance st.key target
          ->
            ()
        | _ -> best := Some (id, st.key))
    | Some _ | None -> ()
  in
  Array.iter (function Some id -> consider id | None -> ()) s.fingers;
  List.iter consider s.successors;
  Option.map fst !best

let handle t ctx msg =
  let self = Engine.self ctx in
  match read t self with
  | None -> ()
  | Some s -> (
      match msg with
      | Lookup { target; request; origin; hops } -> (
          if hops > 3 * Key.bits then
            (* routing loop through stale pointers: give up; the
               requester observes a failed lookup *)
            ()
          else
            match first_live_successor t s with
            | None -> () (* marooned node: dead end *)
            | Some succ ->
                let succ_key =
                  match read t succ with Some st -> st.key | None -> s.key
                in
                if Key.in_half_open target ~lo:s.key ~hi:succ_key then
                  Engine.send ctx origin
                    (Lookup_result { request; owner = succ; hops = hops + 1 })
                else
                  let next =
                    match closest_preceding t s ~self_key:s.key ~target with
                    | Some id -> id
                    | None -> succ
                  in
                  Engine.send ctx next
                    (Lookup { target; request; origin; hops = hops + 1 }))
      | Lookup_result { request; owner; hops } ->
          Hashtbl.replace t.results request (Some (owner, hops)))

let create ?(succ_len = 4) ~seed () =
  if succ_len < 1 then invalid_arg "Chord.Ring.create: succ_len < 1";
  let t =
    {
      succ_len;
      engine = Engine.create ~seed ();
      states = Node_id.Table.create 256;
      results = Hashtbl.create 64;
      next_request = 0;
      rng = Sim.Rng.make (seed lxor 0xc40d);
    }
  in
  t

let run t = ignore (Engine.run t.engine)

let lookup t ~from target =
  if not (is_alive t from) then None
  else begin
    let request = t.next_request in
    t.next_request <- request + 1;
    Hashtbl.replace t.results request None;
    Engine.inject t.engine ~dst:from
      (Lookup { target; request; origin = from; hops = 0 });
    run t;
    let r = Hashtbl.find_opt t.results request in
    Hashtbl.remove t.results request;
    Option.join r
  end

let join t =
  let id = Engine.spawn t.engine (fun ctx msg -> handle t ctx msg) in
  let key = Key.hash_node id in
  let s =
    {
      key;
      successors = [ id ];
      predecessor = None;
      fingers = Array.make Key.bits None;
    }
  in
  Node_id.Table.replace t.states id s;
  (match List.filter (fun o -> o <> id) (alive_ids t) with
  | [] -> () (* first node: its own successor *)
  | others -> (
      let contact = Sim.Rng.pick t.rng others in
      match lookup t ~from:contact key with
      | Some (owner, _) -> s.successors <- [ owner ]
      | None -> (
          (* routed bootstrap failed (e.g. churn mid-join): fall back
             to the contact itself; stabilization will position us *)
          match read t contact with
          | Some _ -> s.successors <- [ contact ]
          | None -> ())));
  run t;
  id

let crash t id = Engine.kill t.engine id

(* One Chord maintenance round (stabilize + notify + fix_fingers for
   every node, in id order). Fingers are refreshed from the global
   view — idealized maintenance that can only flatter this baseline in
   comparisons. *)
let stabilize_round t =
  let nodes = sorted_live t in
  let arr = Array.of_list nodes in
  let n = Array.length arr in
  let owner_idx k =
    (* first index with key >= k, else 0 *)
    let rec go i = if i >= n then 0 else if snd arr.(i) >= k then i else go (i + 1) in
    go 0
  in
  List.iter
    (fun id ->
      match read t id with
      | None -> ()
      | Some s ->
          (* prune dead successors *)
          s.successors <- List.filter (fun x -> is_alive t x) s.successors;
          if s.successors = [] then begin
            (* lost the whole list: rejoin the circle via the global
               view's successor (models re-bootstrap via the oracle) *)
            if n > 0 then
              s.successors <- [ fst arr.(owner_idx (Key.of_int (s.key + 1))) ]
          end;
          (* adopt successor's predecessor when it sits between *)
          (match first_live_successor t s with
          | Some succ -> (
              match read t succ with
              | Some ss -> (
                  (match ss.predecessor with
                  | Some p when is_alive t p -> (
                      match read t p with
                      | Some ps
                        when Key.in_open ps.key ~lo:s.key ~hi:ss.key ->
                          s.successors <- p :: s.successors
                      | Some _ | None -> ())
                  | Some _ | None -> ());
                  (* notify *)
                  let succ = List.hd s.successors in
                  match read t succ with
                  | Some ss2 ->
                      let should =
                        match ss2.predecessor with
                        | Some p when is_alive t p -> (
                            match read t p with
                            | Some ps ->
                                Key.in_open s.key ~lo:ps.key ~hi:ss2.key
                            | None -> true)
                        | Some _ | None -> true
                      in
                      if should && not (Node_id.equal succ id) then
                        ss2.predecessor <- Some id
                  | None -> ())
              | None -> ())
          | None -> ());
          (* extend the successor list from the successor's list *)
          (match first_live_successor t s with
          | Some succ -> (
              match read t succ with
              | Some ss ->
                  let merged =
                    succ
                    :: List.filter (fun x -> is_alive t x && x <> id) ss.successors
                  in
                  let rec dedup seen = function
                    | [] -> []
                    | x :: rest ->
                        if List.mem x seen then dedup seen rest
                        else x :: dedup (x :: seen) rest
                  in
                  s.successors <-
                    List.filteri (fun i _ -> i < t.succ_len) (dedup [] merged)
              | None -> ())
          | None -> ());
          (* Partition guard: crashes can leave two locally-consistent
             disjoint cycles that notify/adopt alone never merge; the
             bootstrap oracle (the same global view the fingers use)
             reveals the true next neighbour. *)
          (if n > 1 then begin
             let true_next = fst arr.(owner_idx (Key.of_int (s.key + 1))) in
             if not (Node_id.equal true_next id) then
               match first_live_successor t s with
               | Some succ when not (Node_id.equal succ true_next) ->
                   s.successors <- true_next :: s.successors
               | None -> s.successors <- [ true_next ]
               | Some _ -> ()
           end);
          (* refresh fingers from the global view *)
          if n > 0 then
            for i = 0 to Key.bits - 1 do
              let start = Key.add_pow2 s.key i in
              s.fingers.(i) <- Some (fst arr.(owner_idx start))
            done)
    (alive_ids t)

let is_consistent t =
  match sorted_live t with
  | [] -> true
  | nodes ->
      let arr = Array.of_list nodes in
      let n = Array.length arr in
      let ok = ref true in
      Array.iteri
        (fun i (id, _) ->
          let expected = fst arr.((i + 1) mod n) in
          match read t id with
          | Some s -> (
              match first_live_successor t s with
              | Some succ ->
                  if not (Node_id.equal succ expected) then ok := false
              | None -> if n > 1 then ok := false)
          | None -> ok := false)
        arr;
      !ok

let stabilize ?(max_rounds = 50) t =
  let rec loop r =
    if is_consistent t then Some r
    else if r >= max_rounds then None
    else begin
      stabilize_round t;
      loop (r + 1)
    end
  in
  loop 0

let messages_sent t = Engine.messages_sent t.engine
let reset_counters t = Engine.reset_counters t.engine
