module Rect = Geometry.Rect
module Node_id = Sim.Node_id

type violation = {
  node : Node_id.t;
  height : int;
  shard : int option;
  what : string;
}

(* [shard = None] prints exactly the pre-forest form — single-tree
   overlays (and [Sharded {shards = 1}], which must stay byte-
   identical to [Single]) never decorate; an actual forest annotates
   every violation with the shard it belongs to, so shrunk fuzz
   counterexamples name the tree as well as the process and height. *)
let pp_violation ppf v =
  match v.shard with
  | None -> Format.fprintf ppf "%a@h%d: %s" Node_id.pp v.node v.height v.what
  | Some s ->
      Format.fprintf ppf "%a@s%d@h%d: %s" Node_id.pp v.node s v.height v.what

let violation node height fmt =
  Format.kasprintf (fun what -> { node; height; shard = None; what }) fmt

(* Ancestor chains: the topmost instance of [id], then its parent's
   topmost instance, etc., up to the root, with a cycle guard. Returns
   the ids on the path excluding [id] itself. *)
let ancestors ov id =
  let rec climb cur visited acc =
    match Overlay.state ov cur with
    | None -> List.rev acc
    | Some s ->
        let top = State.top s in
        let parent = (State.level_exn s top).State.parent in
        if Node_id.equal parent cur || Node_id.Set.mem parent visited then
          List.rev acc
        else climb parent (Node_id.Set.add parent visited) (parent :: acc)
  in
  climb id (Node_id.Set.singleton id) []

(* One instance's clauses of Definition 3.1 (self-chain, attachment,
   occupancy, children coherence, MBR exactness, cover optimality) —
   the per-(process, height) unit both the global {!check} and the
   targeted {!check_at} are built from, plus the forest's shard-
   disjointness clauses (a link may never cross trees — vacuous at one
   shard, where [home] is constantly 0). Global facts (per-shard root
   uniqueness, reachability) live in {!check} only. [pid] prints
   referenced processes — shard-annotated in an actual forest, the
   bare pre-forest id otherwise. *)
let check_level ~m ~big_m ~read ~add ~pid ~home p s h =
  let top = State.top s in
  match State.level s h with
  | None -> add (violation p h "gap in the self-chain (inactive level)")
  | Some l ->
      (* Self-chain parents. *)
      if h < top && not (Node_id.equal l.State.parent p) then
        add (violation p h "non-top instance not self-parented");
      (* Membership in the parent's children set. *)
      (if h = top && not (Node_id.equal l.State.parent p) then
         match read l.State.parent with
         | None -> add (violation p h "parent is dead or unknown")
         | Some spar ->
             (if home l.State.parent <> home p then
                add
                  (violation p h "parent %a homed on another shard" pid
                     l.State.parent));
             (match State.level spar (h + 1) with
             | None -> add (violation p h "parent inactive at the level above")
             | Some lpar ->
                 if not (Node_id.Set.mem p lpar.State.children) then
                   add (violation p h "absent from the parent's children set")));
      if h >= 1 then begin
        (* Occupancy. *)
        let occ = Node_id.Set.cardinal l.State.children in
        let is_root_here = State.is_root s h in
        if is_root_here then begin
          if occ < 2 then
            add (violation p h "interior root with fewer than 2 children")
        end
        else if occ < m then add (violation p h "underfull (%d < %d)" occ m);
        if occ > big_m then add (violation p h "overfull (%d > %d)" occ big_m);
        if l.State.underloaded <> (occ < m) then
          add (violation p h "stale underloaded flag");
        (* Self-membership. *)
        if not (Node_id.Set.mem p l.State.children) then
          add (violation p h "process missing from its own children set");
        (* Children coherence + balance. *)
        Node_id.Set.iter
          (fun c ->
            if not (Node_id.equal c p) then
              match read c with
              | None -> add (violation p h "dead child in children set")
              | Some sc ->
                  if home c <> home p then
                    add (violation p h "child %a homed on another shard" pid c);
                  if not (State.is_active sc (h - 1)) then
                    add
                      (violation p h "child %a inactive at member height" pid c)
                  else if
                    not
                      (Node_id.equal
                         (State.level_exn sc (h - 1)).State.parent p)
                  then add (violation p h "child %a has another parent" pid c)
                  else if State.top sc <> h - 1 then
                    add
                      (violation p h "child %a is active above its member height"
                         pid c))
          l.State.children;
        (* MBR correctness. *)
        let expected =
          Node_id.Set.fold
            (fun c acc ->
              match read c with
              | Some sc -> (
                  match State.mbr_at sc (h - 1) with
                  | Some r -> (
                      match acc with
                      | None -> Some r
                      | Some u -> Some (Rect.union u r))
                  | None -> acc)
              | None -> acc)
            l.State.children None
        in
        (match expected with
        | Some e when not (Rect.equal e l.State.mbr) ->
            add (violation p h "MBR is not the union of member MBRs")
        | Some _ | None -> ());
        (* Cover optimality (Def. 3.1, third clause). *)
        let own_area =
          match State.mbr_at s (h - 1) with
          | Some r -> Rect.area r
          | None -> neg_infinity
        in
        Node_id.Set.iter
          (fun c ->
            if not (Node_id.equal c p) then
              match read c with
              | Some sc -> (
                  match State.mbr_at sc (h - 1) with
                  | Some r ->
                      if Rect.area r > own_area then
                        add
                          (violation p h "member %a offers a better cover" pid c)
                  | None -> ())
              | None -> ())
          l.State.children
      end
      else if
        (* Leaf MBR equals the filter. *)
        not (Rect.equal l.State.mbr (State.filter s))
      then add (violation p h "leaf MBR differs from the filter")

(* The shard printers/stampers: a single-tree overlay — [Single], or
   [Sharded] with one shard — decorates nothing, so its violations
   (records and rendered strings alike) are byte-identical to the
   pre-forest checker's, which the forest differential demands. *)
let forest_ctx ov =
  let net = Overlay.access ov in
  let home id = Access.home_of net id in
  let decorate = Access.shard_count net > 1 in
  let pid ppf id =
    if decorate then Format.fprintf ppf "%a(s%d)" Node_id.pp id (home id)
    else Node_id.pp ppf id
  in
  let stamp p v =
    if decorate then { v with shard = Some (home p) } else v
  in
  (home, pid, stamp, decorate)

let check ov =
  let cfg = Overlay.cfg ov in
  let m = cfg.Config.min_fill and big_m = cfg.Config.max_fill in
  let home, pid, stamp, decorate = forest_ctx ov in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let read id = if Overlay.is_alive ov id then Overlay.state ov id else None in
  (* Root uniqueness and coverage, per shard: every populated shard
     has exactly one claimant — its tree's root. One shard = the
     pre-forest global root-uniqueness check, list orders included. *)
  let shards = Overlay.shard_count ov in
  let claimants_by = Array.make shards [] in
  let population = Array.make shards 0 in
  List.iter
    (fun id ->
      match read id with
      | Some s ->
          let sh = home id in
          population.(sh) <- population.(sh) + 1;
          if State.is_root s (State.top s) then
            claimants_by.(sh) <- id :: claimants_by.(sh)
      | None -> ())
    (Overlay.alive_ids ov);
  let roots = Array.make shards None in
  for sh = 0 to shards - 1 do
    let stamp_sh v = if decorate then { v with shard = Some sh } else v in
    match List.rev claimants_by.(sh) with
    | [] ->
        if population.(sh) > 0 then
          add (stamp_sh (violation (-1) (-1) "no live process claims the root"))
    | [ r ] -> roots.(sh) <- Some r
    | _ :: _ :: _ as cs ->
        List.iter
          (fun id -> add (stamp_sh (violation id (-1) "multiple root claimants")))
          cs
  done;
  (* Per-process structural checks. *)
  Overlay.iter_states ov (fun p s ->
      let add v = add (stamp p v) in
      for h = 0 to State.top s do
        check_level ~m ~big_m ~read ~add ~pid ~home p s h
      done);
  (* Reachability: every live process reachable from its {e own}
     shard's root (not checked for a shard whose root is not unique —
     the claimant violations above already cover it). *)
  let reached = ref Node_id.Set.empty in
  (* Termination: [h] strictly decreases on every recursive call. *)
  let rec visit id h =
    reached := Node_id.Set.add id !reached;
    match read id with
    | None -> ()
    | Some s ->
        if h >= 1 && State.is_active s h then
          Node_id.Set.iter
            (fun c -> visit c (h - 1))
            (State.level_exn s h).State.children
  in
  Array.iter
    (fun root ->
      match root with
      | None -> ()
      | Some r -> (
          match read r with
          | Some sr -> visit r (State.top sr)
          | None -> ()))
    roots;
  List.iter
    (fun id ->
      match roots.(home id) with
      | Some _ ->
          if not (Node_id.Set.mem id !reached) then
            add (stamp id (violation id (-1) "unreachable from the root"))
      | None -> ())
    (Overlay.alive_ids ov);
  List.rev !violations

let is_legal ov = check ov = []

let check_at ov p h =
  let cfg = Overlay.cfg ov in
  let m = cfg.Config.min_fill and big_m = cfg.Config.max_fill in
  let home, pid, stamp, _ = forest_ctx ov in
  let violations = ref [] in
  let add v = violations := stamp p v :: !violations in
  let read id = if Overlay.is_alive ov id then Overlay.state ov id else None in
  (match read p with
  | Some s when h >= 0 && h <= State.top s ->
      check_level ~m ~big_m ~read ~add ~pid ~home p s h
  | Some _ | None -> ());
  List.rev !violations

let height = Overlay.height

let max_memory_words ov =
  let best = ref 0 in
  Overlay.iter_states ov (fun _ s -> best := max !best (State.memory_words s));
  !best

let mean_memory_words ov =
  let total = ref 0 and n = ref 0 in
  Overlay.iter_states ov (fun _ s ->
      total := !total + State.memory_words s;
      incr n);
  if !n = 0 then 0.0 else float_of_int !total /. float_of_int !n

let max_degree ov =
  let best = ref 0 in
  Overlay.iter_states ov (fun _ s ->
      for h = 1 to State.top s do
        match State.level s h with
        | Some l -> best := max !best (Node_id.Set.cardinal l.State.children)
        | None -> ()
      done);
  !best

(* --- Containment awareness (Properties 3.1 / 3.2) --------------------- *)

let strictly_contained r1 r2 = Rect.contains r2 r1 && not (Rect.equal r1 r2)

let weak_containment_violations ov =
  let count = ref 0 in
  Overlay.iter_states ov (fun p1 s1 ->
      Overlay.iter_states ov (fun p2 s2 ->
          if
            (not (Node_id.equal p1 p2))
            && strictly_contained (State.filter s1) (State.filter s2)
            && List.mem p1 (ancestors ov p2)
          then incr count));
  !count

let sibling_or_ancestor ov ~of_:p candidate =
  if List.mem candidate (ancestors ov p) then true
  else
    match (Overlay.state ov p, Overlay.state ov candidate) with
    | Some sp, Some sc ->
        let tp = State.top sp and tc = State.top sc in
        let parp = (State.level_exn sp tp).State.parent in
        let parc = (State.level_exn sc tc).State.parent in
        tp = tc && Node_id.equal parp parc && not (Node_id.equal parp p)
    | _, _ -> false

let strong_containment_violations ov =
  let ids = Overlay.alive_ids ov in
  let filter_of id =
    match Overlay.state ov id with
    | Some s -> Some (State.filter s)
    | None -> None
  in
  let count = ref 0 in
  List.iter
    (fun s1 ->
      match filter_of s1 with
      | None -> ()
      | Some f1 ->
          let containers =
            List.filter
              (fun s2 ->
                (not (Node_id.equal s1 s2))
                &&
                match filter_of s2 with
                | Some f2 -> strictly_contained f1 f2
                | None -> false)
              ids
          in
          if containers <> [] then
            let satisfied =
              List.exists
                (fun s2 -> sibling_or_ancestor ov ~of_:s1 s2)
                containers
            in
            if not satisfied then incr count)
    ids;
  !count
