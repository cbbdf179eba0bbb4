(* Tests for in-network aggregation (lib/agg): the partial-aggregate
   algebra, end-to-end exactness against the brute-force oracle,
   TiNA-style suppression and its tct error bound, query
   anti-entropy, soft-state repair under churn and corruption
   (DESIGN.md §8, experiments E24/E25), and the forest-wide merge
   plane — shard-partition order-insensitivity, sharded exactness,
   and re-announce after a merge-owner root election (DESIGN.md §15,
   E30). *)

module R = Geometry.Rect
module P = Geometry.Point
module O = Drtree.Overlay
module Inv = Drtree.Invariant
module St = Drtree.State
module Tele = Drtree.Telemetry
module Rng = Sim.Rng
module A = Agg.Aggregate
module Rt = Agg.Runtime

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let rect x0 y0 x1 y1 = R.make2 ~x0 ~y0 ~x1 ~y1
let full = rect 0.0 0.0 100.0 100.0

let random_rect rng =
  let x0 = Rng.range rng 0.0 90.0 and y0 = Rng.range rng 0.0 90.0 in
  let w = Rng.range rng 1.0 10.0 and h = Rng.range rng 1.0 10.0 in
  rect x0 y0 (x0 +. w) (y0 +. h)

let build ~seed n =
  let rng = Rng.make (seed * 31) in
  let ov = O.create ~seed () in
  for _ = 1 to n do
    ignore (O.join ov (random_rect rng))
  done;
  (match O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov with
  | Some _ -> ()
  | None -> Alcotest.fail "overlay did not stabilize");
  ov

let build_sharded ~seed ~shards n =
  let cfg =
    Drtree.Config.make ~forest:(Drtree.Config.Sharded { shards }) ()
  in
  let rng = Rng.make (seed * 31) in
  let ov = O.create ~cfg ~seed () in
  for _ = 1 to n do
    ignore (O.join ov (random_rect rng))
  done;
  (match O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov with
  | Some _ -> ()
  | None -> Alcotest.fail "forest did not stabilize");
  ov

(* Each live process produces at its filter center. *)
let centers ov =
  List.filter_map
    (fun id ->
      match O.state ov id with
      | Some s -> Some (id, R.center (St.filter s))
      | None -> None)
    (O.alive_ids ov)

(* One integer-valued reading per live process: sums (hence AVG) are
   exact under any merge order, so tree-vs-oracle comparisons demand
   float equality, not tolerance. *)
let emit rt ~seed =
  let rng = Rng.make seed in
  List.iter
    (fun (id, p) -> Rt.inject rt ~from:id p (float_of_int (Rng.int rng 100)))
    (centers (Rt.overlay rt))

(* The freshest delivered result must exist, carry the current epoch,
   and equal the brute-force oracle bit-for-bit. [None] means exact. *)
let fresh_error rt qid =
  let e = Rt.epoch rt in
  match Rt.oracle rt ~epoch:e qid with
  | None -> Some (Printf.sprintf "query %d unknown to the oracle" qid)
  | Some expect -> (
      match Rt.result rt qid with
      | Some (re, got) when re = e ->
          let same =
            match (got, expect) with
            | Some g, Some x -> g = x
            | None, None -> true
            | Some _, None | None, Some _ -> false
          in
          if same then None
          else
            Some
              (Printf.sprintf "query %d: epoch %d result differs from oracle"
                 qid e)
      | Some (re, _) ->
          Some
            (Printf.sprintf "query %d: stale result (epoch %d, want %d)" qid
               re e)
      | None -> Some (Printf.sprintf "query %d: no result delivered" qid))

let alco_exact rt qid =
  match fresh_error rt qid with None -> () | Some m -> Alcotest.fail m

(* --- The partial algebra (qcheck) ---------------------------------------------- *)

let partial_of_list vs =
  List.fold_left
    (fun acc v -> A.merge acc (A.of_value (float_of_int v)))
    A.identity vs

let gen_vals = QCheck2.Gen.(list_size (int_range 0 20) (int_range (-50) 100))

let algebra_monoid =
  QCheck2.Test.make ~name:"merge is a commutative monoid (integer values)"
    ~count:200
    QCheck2.Gen.(triple gen_vals gen_vals gen_vals)
    (fun (xs, ys, zs) ->
      let a = partial_of_list xs
      and b = partial_of_list ys
      and c = partial_of_list zs in
      A.equal (A.merge a b) (A.merge b a)
      && A.equal (A.merge (A.merge a b) c) (A.merge a (A.merge b c))
      && A.equal (A.merge a A.identity) a
      && A.equal (A.merge A.identity a) a)

(* Brute force over raw integer values — the algebra-level oracle. *)
let brute fn vs =
  let fs = List.map float_of_int vs in
  let sum = List.fold_left ( +. ) 0.0 fs in
  match (fn, fs) with
  | A.Count, _ -> Some (float_of_int (List.length fs))
  | A.Sum, _ -> Some sum
  | (A.Min | A.Max | A.Avg), [] -> None
  | A.Min, _ -> Some (List.fold_left Float.min infinity fs)
  | A.Max, _ -> Some (List.fold_left Float.max neg_infinity fs)
  | A.Avg, _ -> Some (sum /. float_of_int (List.length fs))

let algebra_finalize =
  QCheck2.Test.make ~name:"finalize matches direct computation" ~count:200
    gen_vals
    (fun vs ->
      let p = partial_of_list vs in
      List.for_all (fun fn -> A.finalize fn p = brute fn vs) A.all_fns)

(* The merge plane's algebraic footing (DESIGN.md §15): split a
   population over shards any way at all, merge the per-shard partials
   in any order, and both the partial and every finalized value match
   the whole population. *)
let algebra_shard_partition =
  QCheck2.Test.make
    ~name:"random shard partitions: any merge order = whole population"
    ~count:300
    QCheck2.Gen.(
      int_range 1 6 >>= fun shards ->
      pair (pure shards)
        (list_size (int_range 0 30)
           (pair (int_range (-50) 100) (int_range 0 (shards - 1)))))
    (fun (shards, tagged) ->
      let vs = List.map fst tagged in
      let whole = partial_of_list vs in
      let parts =
        List.init shards (fun s ->
            partial_of_list
              (List.filter_map
                 (fun (v, t) -> if t = s then Some v else None)
                 tagged))
      in
      let fold ps = List.fold_left A.merge A.identity ps in
      let rot k =
        let arr = Array.of_list parts in
        let n = Array.length arr in
        List.init n (fun i -> arr.((i + k) mod n))
      in
      let orders = List.rev parts :: List.init shards rot in
      List.for_all (fun ps -> A.equal (fold ps) whole) orders
      && List.for_all
           (fun fn -> A.finalize fn (fold parts) = brute fn vs)
           A.all_fns)

let algebra_delta =
  QCheck2.Test.make ~name:"delta: zero iff equal, |v-w| on singletons"
    ~count:200
    QCheck2.Gen.(
      quad gen_vals gen_vals (int_range (-50) 100) (int_range (-50) 100))
    (fun (xs, ys, v, w) ->
      let a = partial_of_list xs and b = partial_of_list ys in
      A.delta a a = 0.0
      && A.delta A.identity A.identity = 0.0
      && A.delta a b = A.delta b a
      && (A.delta a b = 0.0) = A.equal a b
      && A.delta
           (A.of_value (float_of_int v))
           (A.of_value (float_of_int w))
         = abs_float (float_of_int (v - w)))

(* --- End-to-end exactness on a healthy overlay ---------------------------------- *)

let test_exact_all_fns () =
  let ov = build ~seed:42 48 in
  let rt = Rt.attach ov in
  let owner = List.hd (O.alive_ids ov) in
  let qids = List.map (fun fn -> Rt.register rt ~owner ~rect:full fn) A.all_fns in
  emit rt ~seed:421;
  Rt.run_epoch rt;
  List.iter (alco_exact rt) qids;
  (* fresh readings in the next epoch stay exact *)
  emit rt ~seed:422;
  Rt.run_epoch rt;
  List.iter (alco_exact rt) qids;
  check_int "two epochs recorded" 2
    (List.length (Tele.agg_epochs (O.telemetry ov)));
  Rt.detach rt

let test_empty_match_set () =
  let ov = build ~seed:43 16 in
  let rt = Rt.attach ov in
  let owner = List.hd (O.alive_ids ov) in
  let nowhere = rect 200.0 200.0 210.0 210.0 in
  let count = Rt.register rt ~owner ~rect:nowhere A.Count in
  let minq = Rt.register rt ~owner ~rect:nowhere A.Min in
  emit rt ~seed:431;
  Rt.run_epoch rt;
  (match Rt.result rt count with
  | Some (1, Some v) -> check_float "COUNT of nothing is 0" 0.0 v
  | _ -> Alcotest.fail "COUNT over empty match set");
  (match Rt.result rt minq with
  | Some (1, None) -> ()
  | _ -> Alcotest.fail "MIN over empty match set must be None");
  Rt.detach rt

(* The oracle keeps one epoch of readings: a second epoch's COUNT sees
   only its own readings, and asking for any other epoch is an error
   rather than a silently empty (identity) answer. *)
let test_oracle_current_epoch_only () =
  let ov = build ~seed:45 24 in
  let rt = Rt.attach ov in
  let owner = List.hd (O.alive_ids ov) in
  let count = Rt.register rt ~owner ~rect:full A.Count in
  let n = float_of_int (List.length (O.alive_ids ov)) in
  emit rt ~seed:451;
  emit rt ~seed:452;
  Rt.run_epoch rt;
  check_bool "epoch 1 counts both emissions" true
    (Rt.oracle rt ~epoch:1 count = Some (Some (2.0 *. n)));
  emit rt ~seed:453;
  Rt.run_epoch rt;
  check_bool "epoch 2 counts its own emission" true
    (Rt.oracle rt ~epoch:2 count = Some (Some n));
  List.iter
    (fun e ->
      check_bool
        (Printf.sprintf "epoch %d rejected" e)
        true
        (match Rt.oracle rt ~epoch:e count with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0; 1; 3 ];
  Rt.detach rt

(* --- Suppression --------------------------------------------------------------- *)

let test_suppression_static_signal () =
  (* Identical readings in consecutive epochs: with tct = 0 every
     non-root report is suppressed (bit-identical partials) and the
     cached result stays exact. *)
  let ov = build ~seed:44 48 in
  let rt = Rt.attach ov in
  let owner = List.hd (O.alive_ids ov) in
  let qid = Rt.register rt ~owner ~rect:full A.Sum in
  emit rt ~seed:441;
  Rt.run_epoch rt;
  let tele = O.telemetry ov in
  (match Tele.last_agg_epoch tele with
  | Some rep ->
      check_bool "first epoch sends partials" true (rep.Tele.partials_sent > 0)
  | None -> Alcotest.fail "no epoch report");
  emit rt ~seed:441;
  Rt.run_epoch rt;
  (match Tele.last_agg_epoch tele with
  | Some rep ->
      check_int "unchanged signal sends nothing" 0 rep.Tele.partials_sent;
      check_bool "and suppresses the reports instead" true
        (rep.Tele.suppressed > 0)
  | None -> Alcotest.fail "no epoch report");
  alco_exact rt qid;
  Rt.detach rt

let test_tct_bounds_staleness () =
  (* All producers read 10. One pure leaf moves to 13 — inside
     tct = 5, so the report is suppressed and the SUM result goes
     stale by exactly 3. A later move beyond the tolerance forces the
     resend and restores exactness. *)
  let ov = build ~seed:45 32 in
  let rt = Rt.attach ov in
  let owner = List.hd (O.alive_ids ov) in
  let qid = Rt.register rt ~tct:5.0 ~owner ~rect:full A.Sum in
  let pts = centers ov in
  let n = List.length pts in
  let leaf, _ =
    List.find
      (fun (id, _) ->
        match O.state ov id with Some s -> St.top s = 0 | None -> false)
      pts
  in
  let emit_with v_leaf =
    List.iter
      (fun (id, p) ->
        Rt.inject rt ~from:id p
          (if Sim.Node_id.equal id leaf then v_leaf else 10.0))
      pts
  in
  emit_with 10.0;
  Rt.run_epoch rt;
  (match Rt.result rt qid with
  | Some (1, Some v) -> check_float "baseline sum" (10.0 *. float_of_int n) v
  | _ -> Alcotest.fail "no baseline result");
  emit_with 13.0;
  Rt.run_epoch rt;
  (match Rt.result rt qid with
  | Some (2, Some v) ->
      check_float "change within tct is suppressed: stale by exactly 3"
        (10.0 *. float_of_int n) v
  | _ -> Alcotest.fail "no epoch-2 result");
  emit_with 23.0;
  Rt.run_epoch rt;
  (match Rt.result rt qid with
  | Some (3, Some v) ->
      check_float "change beyond tct propagates"
        ((10.0 *. float_of_int n) +. 13.0)
        v
  | _ -> Alcotest.fail "no epoch-3 result");
  Rt.detach rt

(* --- Query anti-entropy and soft-state repair ----------------------------------- *)

let test_join_learns_queries () =
  (* The subscription flood happened before this process existed; the
     repair pass's top-down anti-entropy must teach it the query. *)
  let ov = build ~seed:46 24 in
  let rt = Rt.attach ov in
  let owner = List.hd (O.alive_ids ov) in
  let qid = Rt.register rt ~owner ~rect:full A.Count in
  let fresh = O.join ov (rect 40.0 40.0 45.0 45.0) in
  check_bool "flood predates the join" false
    (List.mem qid (Rt.debug_known_queries rt fresh));
  (* one stabilization round co-runs Agg_repair (stabilize may take
     zero rounds when the join already left the overlay legal) *)
  O.stabilize_round ov;
  check_bool "late joiner learned the standing query" true
    (List.mem qid (Rt.debug_known_queries rt fresh));
  Rt.detach rt

let test_rx_purged_after_crash () =
  let ov = build ~seed:47 40 in
  let rt = Rt.attach ov in
  let owner = List.hd (O.alive_ids ov) in
  let _qid = Rt.register rt ~owner ~rect:full A.Sum in
  emit rt ~seed:471;
  Rt.run_epoch rt;
  let victim =
    List.find
      (fun id -> not (Sim.Node_id.equal id owner))
      (List.rev (O.alive_ids ov))
  in
  O.crash ov victim;
  (match O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov with
  | Some _ -> ()
  | None -> Alcotest.fail "did not re-stabilize");
  List.iter
    (fun id ->
      List.iter
        (fun (_, child, _, _) ->
          check_bool "no cached partial from the departed process" false
            (Sim.Node_id.equal child victim))
        (Rt.debug_rx rt id))
    (O.alive_ids ov);
  Rt.detach rt

let test_sent_cache_names_current_parent () =
  (* After churn plus stabilization (which co-runs Agg_repair), every
     surviving suppression reference must point at the process's
     current top-level parent — stale references would let a new
     parent miss reports forever. *)
  let ov = build ~seed:48 40 in
  let rt = Rt.attach ov in
  let rng = Rng.make 481 in
  let owner = List.hd (O.alive_ids ov) in
  let qid = Rt.register rt ~owner ~rect:full A.Sum in
  emit rt ~seed:482;
  Rt.run_epoch rt;
  for _ = 1 to 4 do
    (match List.filter (fun id -> not (Sim.Node_id.equal id owner))
             (O.alive_ids ov) with
    | [] -> ()
    | ids -> O.crash ov (Rng.pick rng ids));
    ignore (O.join ov (random_rect rng))
  done;
  (match O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov with
  | Some _ -> ()
  | None -> Alcotest.fail "did not re-stabilize");
  List.iter
    (fun id ->
      match O.state ov id with
      | None -> ()
      | Some s ->
          let top = St.top s in
          let parent = (St.level_exn s top).St.parent in
          List.iter
            (fun (_, p, _) ->
              check_bool "suppression reference names the current parent" true
                (Sim.Node_id.equal p parent))
            (Rt.debug_sent rt id))
    (O.alive_ids ov);
  (* and the repaired tree still answers exactly *)
  emit rt ~seed:483;
  Rt.run_epoch rt;
  alco_exact rt qid;
  Rt.detach rt

let test_forged_subscribe_heals () =
  (* A forged Agg_subscribe that reuses the live query id with a wrong
     rectangle, delivered to every fourth non-root process: anti-entropy
     must compare definitions, not only test for the id, or the wrong
     one is never replaced. Each epoch follows one stabilization round,
     which co-runs the repair pass. *)
  List.iter
    (fun (seed, shards) ->
      let ov =
        if shards = 1 then build ~seed 64 else build_sharded ~seed ~shards 64
      in
      let rt = Rt.attach ov in
      let roots = List.filter_map Fun.id (O.shard_roots ov) in
      let non_roots =
        List.filter
          (fun id -> not (List.exists (Sim.Node_id.equal id) roots))
          (O.alive_ids ov)
      in
      let qid = Rt.register rt ~owner:(List.hd non_roots) ~rect:full A.Sum in
      let forged =
        match Rt.query rt qid with
        | Some q -> { q with Agg.Query.q_rect = rect 0.0 0.0 50.0 50.0 }
        | None -> Alcotest.fail "registered query unknown"
      in
      List.iteri
        (fun i id ->
          if i mod 4 = 0 then
            Sim.Engine.inject (O.engine ov) ~dst:id
              (Drtree.Message.Agg_subscribe { query = forged; hops = 0 }))
        non_roots;
      O.run ov;
      for e = 1 to 10 do
        O.stabilize_round ov;
        emit rt ~seed:((1000 * seed) + e);
        Rt.run_epoch rt;
        match fresh_error rt qid with
        | None -> ()
        | Some m ->
            Alcotest.failf "seed %d, %d shard(s), epoch %d: %s" seed shards e m
      done;
      Rt.detach rt)
    [ (1, 1); (2, 1); (3, 1); (1, 4); (2, 4); (3, 4) ]

(* --- The forest-wide merge plane (DESIGN.md §15) --------------------------------- *)

let test_sharded_exact_all_fns () =
  let ov = build_sharded ~seed:50 ~shards:4 72 in
  let rt = Rt.attach ov in
  let owner = List.hd (O.alive_ids ov) in
  let qids =
    List.map (fun fn -> Rt.register rt ~owner ~rect:full fn) A.all_fns
  in
  (* a corner query covering fewer shards must stay exact too *)
  let corner = Rt.register rt ~owner ~rect:(rect 0.0 0.0 30.0 30.0) A.Sum in
  emit rt ~seed:501;
  Rt.run_epoch rt;
  List.iter (alco_exact rt) (corner :: qids);
  check_bool "cross-shard merge partials flowed" true
    (Tele.agg_merges (O.telemetry ov) > 0);
  emit rt ~seed:502;
  Rt.run_epoch rt;
  List.iter (alco_exact rt) (corner :: qids);
  Rt.detach rt

let test_merge_reannounce_after_owner_crash () =
  (* Mid-stream, the merge-owner shard's root crashes and a new root
     is elected. Peer shard roots hold suppression references keyed to
     the dead owner: the repair pass must drop them so the next epoch
     re-announces the (unchanged) partials to the new owner instead of
     suppressing into its empty cache — the signal is static, so any
     missing re-announce shows up as an inexact result. *)
  let ov = build_sharded ~seed:49 ~shards:4 64 in
  let rt = Rt.attach ov in
  let tele = O.telemetry ov in
  let rooted () = List.filter_map Fun.id (O.shard_roots ov) in
  check_bool "needs at least two rooted shards" true
    (List.length (rooted ()) >= 2);
  (* the query owner must survive the crash below, so pick a non-root *)
  let owner =
    List.find
      (fun id -> not (List.exists (Sim.Node_id.equal id) (rooted ())))
      (O.alive_ids ov)
  in
  let qid = Rt.register rt ~owner ~rect:full A.Sum in
  (* a fixed per-process signal, replayable across the crash *)
  let readings =
    List.mapi
      (fun i (id, p) -> (id, p, float_of_int (i * 13 mod 101)))
      (centers ov)
  in
  let emit_static () =
    List.iter (fun (id, p, v) -> Rt.inject rt ~from:id p v) readings
  in
  emit_static ();
  Rt.run_epoch rt;
  alco_exact rt qid;
  let m1 = Tele.agg_merges tele in
  check_bool "cross-shard partials announced" true (m1 > 0);
  (* steady state: a static signal suppresses the merge announcements *)
  emit_static ();
  Rt.run_epoch rt;
  alco_exact rt qid;
  check_int "static signal suppresses merges" m1 (Tele.agg_merges tele);
  (* crash the merge owner (full rect covers every shard, so it is the
     root of the lowest rooted shard) and let the overlay re-elect *)
  let owner_root =
    match rooted () with
    | r :: _ -> r
    | [] -> Alcotest.fail "no rooted shard"
  in
  O.crash ov owner_root;
  (match O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov with
  | Some _ -> ()
  | None -> Alcotest.fail "did not re-stabilize");
  emit_static ();
  Rt.run_epoch rt;
  alco_exact rt qid;
  check_bool "peers re-announced to the new owner" true
    (Tele.agg_merges tele > m1);
  Rt.detach rt

let test_merge_purged_when_peer_shard_empties () =
  (* Three processes on a four-shard forest, each alone on its shard.
     The query's only matching producer leaves, emptying its covered
     shard: no root is left there to re-announce, so the merge owner
     must drop the shard's cached partial instead of folding the
     departed producer's last reading into every later epoch. *)
  let cfg =
    Drtree.Config.make ~forest:(Drtree.Config.Sharded { shards = 4 }) ()
  in
  let ov = O.create ~cfg ~seed:3 () in
  let a = O.join ov (rect 84.0 66.0 93.0 75.0) in
  let b = O.join ov (rect 23.0 51.0 32.0 53.0) in
  let c = O.join ov (rect 14.0 38.0 20.0 42.0) in
  check_int "three distinct shards" 3
    (List.length (List.sort_uniq compare (List.map (O.shard_of ov) [ a; b; c ])));
  let rt = Rt.attach ov in
  let qid = Rt.register rt ~owner:a ~rect:(rect 20.0 45.0 30.0 55.0) A.Max in
  emit rt ~seed:491;
  Rt.run_epoch rt;
  alco_exact rt qid;
  O.leave ov b;
  (match O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov with
  | Some _ -> ()
  | None -> Alcotest.fail "did not re-stabilize");
  Rt.repair rt;
  emit rt ~seed:492;
  Rt.run_epoch rt;
  alco_exact rt qid;
  check_bool "MAX over no producer is None" true
    (Rt.result rt qid = Some (Rt.epoch rt, None));
  Rt.detach rt

(* --- Differential: tct=0 exactness survives churn + corruption ------------------ *)

let churn_exactness =
  QCheck2.Test.make
    ~name:"tct=0 result equals oracle once legal again (churn + corruption)"
    ~count:10
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let fail : string -> unit = QCheck2.Test.fail_report in
      let exact rt qid =
        match fresh_error rt qid with None -> () | Some m -> fail m
      in
      let rng = Rng.make seed in
      let ov = O.create ~seed () in
      for _ = 1 to 25 + (seed mod 15) do
        ignore (O.join ov (random_rect rng))
      done;
      (match O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov with
      | Some _ -> ()
      | None -> fail "overlay did not stabilize");
      let rt = Rt.attach ov in
      let owner = List.hd (O.alive_ids ov) in
      let qids =
        Rt.register rt ~owner ~rect:full A.Sum
        :: List.map
             (fun fn -> Rt.register rt ~owner ~rect:(random_rect rng) fn)
             A.all_fns
      in
      (* a healthy epoch is exact *)
      emit rt ~seed:(seed lxor 0x5a5a);
      Rt.run_epoch rt;
      List.iter (exact rt) qids;
      (* crash or corrupt a fifth of the network, then let the
         stabilization rounds (which co-run Agg_repair) recover *)
      let victims = Drtree.Corrupt.random_victims ov rng ~fraction:0.2 in
      List.iteri
        (fun i v ->
          if Sim.Node_id.equal v owner then ()
          else if i mod 2 = 0 then O.crash ov v
          else ignore (Drtree.Corrupt.any ov rng v))
        victims;
      (match O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov with
      | Some _ -> ()
      | None -> fail "did not re-stabilize");
      emit rt ~seed:(seed lxor 0x3c3c);
      Rt.run_epoch rt;
      List.iter (exact rt) qids;
      Rt.detach rt;
      true)

let () =
  Alcotest.run "agg"
    [
      ( "algebra",
        List.map QCheck_alcotest.to_alcotest
          [
            algebra_monoid; algebra_finalize; algebra_delta;
            algebra_shard_partition;
          ] );
      ( "exactness",
        [
          Alcotest.test_case "all five functions vs oracle" `Quick
            test_exact_all_fns;
          Alcotest.test_case "empty match set" `Quick test_empty_match_set;
          Alcotest.test_case "oracle answers the current epoch only" `Quick
            test_oracle_current_epoch_only;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "static signal sends nothing" `Quick
            test_suppression_static_signal;
          Alcotest.test_case "tct bounds the staleness" `Quick
            test_tct_bounds_staleness;
        ] );
      ( "repair",
        [
          Alcotest.test_case "late joiner learns queries" `Quick
            test_join_learns_queries;
          Alcotest.test_case "rx purged after crash" `Quick
            test_rx_purged_after_crash;
          Alcotest.test_case "sent cache tracks the parent" `Quick
            test_sent_cache_names_current_parent;
          Alcotest.test_case "forged query definition heals" `Quick
            test_forged_subscribe_heals;
        ] );
      ( "forest",
        [
          Alcotest.test_case "sharded exactness, all functions" `Quick
            test_sharded_exact_all_fns;
          Alcotest.test_case "re-announce after owner root election" `Quick
            test_merge_reannounce_after_owner_crash;
          Alcotest.test_case "merge cache purged when a peer shard empties"
            `Quick test_merge_purged_when_peer_shard_empties;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest churn_exactness ] );
    ]
