(* E12: micro-benchmarks (bechamel). One Test.make per operation;
   results are printed as ns/op from the OLS fit against run count. *)

module R = Geometry.Rect
module P = Geometry.Point
module O = Drtree.Overlay
module Rng = Sim.Rng
open Bechamel
open Toolkit

let random_rects seed n =
  let rng = Rng.make seed in
  Array.init n (fun _ ->
      let x0 = Rng.range rng 0.0 90.0 and y0 = Rng.range rng 0.0 90.0 in
      let w = Rng.range rng 1.0 10.0 and h = Rng.range rng 1.0 10.0 in
      R.make2 ~x0 ~y0 ~x1:(x0 +. w) ~y1:(y0 +. h))

let tests () =
  let rects = random_rects 1 1024 in
  let points =
    let rng = Rng.make 2 in
    Array.init 1024 (fun _ ->
        P.make2 (Rng.range rng 0.0 100.0) (Rng.range rng 0.0 100.0))
  in
  let idx = ref 0 in
  let next arr =
    idx := (!idx + 1) land 1023;
    arr.(!idx)
  in
  (* Geometry primitives. *)
  let t_union =
    Test.make ~name:"rect union+area"
      (Staged.stage (fun () ->
           let r = R.union (next rects) (next rects) in
           ignore (R.area r)))
  in
  let t_contains =
    Test.make ~name:"rect contains_point"
      (Staged.stage (fun () -> ignore (R.contains_point (next rects) (next points))))
  in
  (* Split policies on an overflowing children set (M+1 = 9 entries,
     the hot path of DR-tree splits with m=4, M=8). *)
  let split_input =
    Array.to_list (Array.sub (Array.mapi (fun i r -> (r, i)) rects) 0 9)
  in
  let split_test kind =
    Test.make ~name:(Printf.sprintf "split %s (9 entries)" (Rtree.Split.kind_to_string kind))
      (Staged.stage (fun () ->
           ignore (Rtree.Split.split kind ~min_fill:4 split_input)))
  in
  (* Sequential R-tree. *)
  let rtree =
    let t = Rtree.Tree.create (Rtree.Tree.config ~min_fill:2 ~max_fill:8 ()) in
    Array.iteri (fun i r -> Rtree.Tree.insert t r i) rects;
    t
  in
  let t_rtree_search =
    Test.make ~name:"rtree search_point (N=1024)"
      (Staged.stage (fun () -> ignore (Rtree.Tree.search_point rtree (next points))))
  in
  let t_rtree_build =
    Test.make ~name:"rtree build (N=256)"
      (Staged.stage (fun () ->
           let t = Rtree.Tree.create Rtree.Tree.default_config in
           for i = 0 to 255 do
             Rtree.Tree.insert t rects.(i) i
           done))
  in
  (* DR-tree operations on a prepared overlay. *)
  let ov = O.create ~seed:3 () in
  Array.iter (fun r -> ignore (O.join ov r)) (Array.sub rects 0 256);
  ignore (O.stabilize ~legal:Drtree.Invariant.is_legal ov);
  let ids = Array.of_list (O.alive_ids ov) in
  let t_publish =
    Test.make ~name:"drtree publish (N=256)"
      (Staged.stage (fun () ->
           let from = ids.(!idx land (Array.length ids - 1)) in
           ignore (O.publish ov ~from (next points))))
  in
  let t_stab_round =
    Test.make ~name:"drtree stabilize_round (N=256)"
      (Staged.stage (fun () -> O.stabilize_round ov))
  in
  let t_invariant =
    Test.make ~name:"drtree invariant check (N=256)"
      (Staged.stage (fun () -> ignore (Drtree.Invariant.check ov)))
  in
  (* Flat state layout (DESIGN.md §11): per-height level access on a
     mid-tree instance, the dirty-queue mark, and the intern table that
     backs the store's dense indexing. *)
  let next_id () =
    idx := (!idx + 1) land 1023;
    ids.(!idx mod Array.length ids)
  in
  let deep_state =
    let s =
      Drtree.State.create ~id:ids.(0) ~filter:rects.(0) ()
    in
    ignore (Drtree.State.activate s 6);
    s
  in
  let t_state_get =
    Test.make ~name:"state level get (h=3 of top=6)"
      (Staged.stage (fun () -> ignore (Drtree.State.level deep_state 3)))
  in
  let t_state_set =
    Test.make ~name:"state level set mbr"
      (Staged.stage (fun () ->
           let lvl = Drtree.State.level_exn deep_state 3 in
           lvl.Drtree.State.mbr <- next rects))
  in
  let net = O.access ov in
  let t_mark =
    Test.make ~name:"access mark (packed dirty key)"
      (Staged.stage (fun () ->
           Drtree.Access.mark net (next_id ()) (!idx land 7)))
  in
  let intern_tbl = Drtree.Intern.create () in
  Array.iter (fun id -> ignore (Drtree.Intern.intern intern_tbl id)) ids;
  let t_intern =
    Test.make ~name:"intern hit (N=256 live)"
      (Staged.stage (fun () ->
           ignore (Drtree.Intern.intern intern_tbl (next_id ()))))
  in
  let t_intern_find =
    Test.make ~name:"intern find"
      (Staged.stage (fun () ->
           ignore (Drtree.Intern.find intern_tbl (next_id ()))))
  in
  (* Wire codec: one cheap fixed-size message and one snapshot-bearing
     Report (the fattest frame the protocol sends — 4 levels here). *)
  let module M = Drtree.Message in
  let check_msg = M.Check_mbr 3 in
  let report_msg =
    let levels =
      List.init 4 (fun h ->
          {
            M.height = h;
            mbr = rects.(h);
            parent = ids.(0);
            children =
              Array.fold_left
                (fun s i -> Sim.Node_id.Set.add i s)
                Sim.Node_id.Set.empty (Array.sub ids 0 8);
          })
    in
    M.Report
      {
        snapshot =
          { M.responder = ids.(0); top = 3; filter = rects.(0); levels };
      }
  in
  let check_frame = M.Codec.encode check_msg in
  let report_frame = M.Codec.encode report_msg in
  let t_enc_check =
    Test.make ~name:"codec encode Check_mbr (6 B)"
      (Staged.stage (fun () -> ignore (M.Codec.encode check_msg)))
  in
  let t_enc_report =
    Test.make
      ~name:(Printf.sprintf "codec encode Report (%d B)"
               (String.length report_frame))
      (Staged.stage (fun () -> ignore (M.Codec.encode report_msg)))
  in
  let t_dec_check =
    Test.make ~name:"codec decode Check_mbr"
      (Staged.stage (fun () -> ignore (M.Codec.decode check_frame)))
  in
  let t_dec_report =
    Test.make ~name:"codec decode Report"
      (Staged.stage (fun () -> ignore (M.Codec.decode report_frame)))
  in
  [
    t_union;
    t_contains;
    split_test Rtree.Split.Linear;
    split_test Rtree.Split.Quadratic;
    split_test Rtree.Split.Rstar;
    t_rtree_search;
    t_rtree_build;
    t_publish;
    t_stab_round;
    t_invariant;
    t_state_get;
    t_state_set;
    t_mark;
    t_intern;
    t_intern_find;
    t_enc_check;
    t_enc_report;
    t_dec_check;
    t_dec_report;
  ]

let run () =
  Format.printf "@.=== E12: micro-benchmarks (ns/op, OLS fit) ===@.@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let table = Stats.Table.create ~title:"E12  micro-benchmarks"
      ~columns:[ "operation"; "ns/op"; "r^2" ]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let stats = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> est
            | Some _ | None -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> r
            | None -> nan
          in
          Stats.Table.add_rowf table "%s|%.0f|%.4f" name ns r2)
        stats)
    (tests ());
  Stats.Table.print table
