(* Command-line driver for the DR-tree library.

   Subcommands:
     build      build an overlay from a workload and print its shape
     publish    build, publish events, report accuracy/cost
     churn      build, apply faults, watch stabilization repair
     inspect    dump the tree structure of a small overlay
     export     render the overlay (dot, ascii, svg, edge list)
     aggregate  run a standing aggregate query over epochs (lib/agg)
     fuzz       adversarial model checking: fuzz, shrink, replay traces

   Examples:
     drtree_cli build -n 512 --workload clustered
     drtree_cli build -n 256 --config "min-fill=3 max-fill=6 forest=4"
     drtree_cli publish -n 256 --events 500 --event-workload hotspot
     drtree_cli churn -n 200 --crash 0.2 --corrupt 0.1
     drtree_cli inspect -n 20
     drtree_cli export -n 64 --format dot
     drtree_cli aggregate -n 256 --fn sum --tct 2 --epochs 20
     drtree_cli fuzz --traces 500 --drop 0.1
     drtree_cli fuzz --traces 500 --differential layout
     drtree_cli fuzz --cover-sweep off --sched fifo
     drtree_cli fuzz --replay repro/counterexample-42.trace *)

module O = Drtree.Overlay
module Inv = Drtree.Invariant
module Cfg = Drtree.Config
module St = Drtree.State
module Rng = Sim.Rng
open Cmdliner

let space = Workload.Space.default

(* --- Common options --------------------------------------------------------- *)

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let size_t =
  Arg.(
    value & opt int 256
    & info [ "n"; "size" ] ~docv:"N" ~doc:"Number of subscribers.")

let workload_t =
  let names = List.map fst Workload.Subscription_gen.catalog in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "uniform"
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Subscription workload (%s)."
             (String.concat ", " names)))

let transport_t =
  Arg.(
    value
    & opt (enum [ ("inproc", `Inproc); ("wire", `Wire) ]) `Inproc
    & info [ "transport" ] ~docv:"KIND"
        ~doc:
          "Message transport: inproc (values handed directly to the \
           receiver) or wire (every message serialized through the binary \
           codec and re-decoded at delivery, with byte accounting).")

let to_transport = function
  | `Inproc -> Sim.Transport.inproc
  | `Wire -> Drtree.Message.Codec.transport

(* --- Overlay configuration -------------------------------------------------------

   One flag per row of the knob table (Drtree.Config.fields), plus
   --config in Config.to_string's syntax. Every subcommand takes the
   result; fuzz configures its generated traces with it. *)

let config_t =
  let base =
    Arg.(
      value & opt string ""
      & info [ "config" ] ~docv:"STRING"
          ~doc:
            "Overlay configuration as space-separated NAME=VALUE pairs, the \
             form $(b,build) prints after $(b,config:). A missing key takes \
             its default; the per-knob flags override the string.")
  in
  (* A flag's value is syntax-checked here and passed on as NAME=VALUE;
     Config.of_string applies the string, then the flags in table order,
     and validates the result once. *)
  let flag (f : Cfg.field) =
    let parse s =
      match f.parse s with
      | Ok _ -> Ok (f.name ^ "=" ^ s)
      | Error e -> Error (`Msg e)
    in
    let text = Arg.conv (parse, Format.pp_print_string) in
    Arg.(
      value
      & opt (some ~none:(f.print Cfg.default) text) None
      & info [ f.name ] ~docv:f.docv ~doc:f.doc)
  in
  let assignments =
    List.fold_right
      (fun f rest ->
        Term.(const (fun a r -> Option.to_list a @ r) $ flag f $ rest))
      Cfg.fields (Term.const [])
  in
  Term.term_result'
    Term.(
      const (fun s kvs -> Cfg.of_string (String.concat " " (s :: kvs)))
      $ base $ assignments)

let build_overlay ~cfg ~transport ~seed ~n ~workload =
  let rng = Rng.make (seed * 31) in
  let gen = List.assoc workload Workload.Subscription_gen.catalog in
  let rects = gen space rng n in
  let ov = O.create ~cfg ~transport:(to_transport transport) ~seed () in
  (match cfg.Cfg.detector with
  | Cfg.Oracle -> ()
  | Cfg.Heartbeat _ -> ignore (Fd.Runtime.attach ov));
  List.iter (fun r -> ignore (O.join ov r)) rects;
  ignore (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov);
  (ov, rng)

let print_shape ov =
  Printf.printf "subscribers : %d\n" (O.size ov);
  Printf.printf "height      : %d\n" (O.height ov);
  Printf.printf "max degree  : %d\n" (Inv.max_degree ov);
  Printf.printf "max memory  : %d words/node\n" (Inv.max_memory_words ov);
  Printf.printf "mean memory : %.1f words/node\n" (Inv.mean_memory_words ov);
  Printf.printf "legal state : %b\n" (Inv.is_legal ov);
  Printf.printf "weak containment violations : %d\n"
    (Inv.weak_containment_violations ov);
  let eng = O.engine ov in
  match Sim.Engine.transport eng with
  | Sim.Transport.Inproc -> ()
  | Sim.Transport.Wire _ ->
      Printf.printf
        "wire bytes  : %d sent, %d received, %d lost, %d decode errors\n"
        (Sim.Engine.bytes_sent eng)
        (Sim.Engine.bytes_received eng)
        (Sim.Engine.bytes_lost eng)
        (Sim.Engine.decode_errors eng)

(* --- build ------------------------------------------------------------------- *)

let build_cmd =
  let run seed n workload cfg transport =
    let ov, _ = build_overlay ~cfg ~transport ~seed ~n ~workload in
    Format.printf "config: %a@." Cfg.pp cfg;
    print_shape ov;
    (if O.shard_count ov > 1 then begin
       Printf.printf "forest      : %d shards\n" (O.shard_count ov);
       List.iteri
         (fun s root ->
           let members =
             List.length
               (List.filter (fun id -> O.shard_of ov id = s) (O.alive_ids ov))
           in
           Printf.printf "  shard %-4d: %s, %d subscriber(s)\n" s
             (match root with
             | Some r -> Printf.sprintf "root n%d" r
             | None -> "no root")
             members)
         (O.shard_roots ov)
     end);
    (match cfg.Cfg.detector with
    | Cfg.Oracle -> ()
    | Cfg.Heartbeat _ ->
        let tele = O.telemetry ov in
        Printf.printf
          "detector    : %d suspicion(s) (%d false), %d confirm(s) (%d false \
           kill(s))\n"
          (Drtree.Telemetry.fd_suspicions tele)
          (Drtree.Telemetry.fd_false_suspicions tele)
          (Drtree.Telemetry.fd_confirms tele)
          (Drtree.Telemetry.fd_false_kills tele))
  in
  Cmd.v (Cmd.info "build" ~doc:"Build an overlay and print its shape.")
    Term.(
      const run $ seed_t $ size_t $ workload_t $ config_t $ transport_t)

(* --- publish ----------------------------------------------------------------- *)

let publish_cmd =
  let events_t =
    Arg.(value & opt int 200 & info [ "events" ] ~docv:"COUNT" ~doc:"Events to publish.")
  in
  let event_workload_t =
    Arg.(
      value
      & opt (enum [ ("uniform", "uniform"); ("hotspot", "hotspot"); ("zipf", "zipf"); ("targeted", "targeted") ]) "uniform"
      & info [ "event-workload" ] ~docv:"NAME" ~doc:"Event distribution.")
  in
  let run seed n workload cfg transport events event_workload =
    let ov, rng = build_overlay ~cfg ~transport ~seed ~n ~workload in
    let rects =
      List.filter_map
        (fun id ->
          Option.map St.filter (O.state ov id))
        (O.alive_ids ov)
    in
    let gen =
      List.assoc event_workload (Workload.Event_gen.catalog ~subscriptions:rects)
    in
    let points = gen space rng events in
    let ids = O.alive_ids ov in
    let fp = ref 0 and fn = ref 0 and msgs = ref 0 and hops = ref 0 in
    let delivered = ref 0 in
    List.iter
      (fun p ->
        let report = O.publish ov ~from:(Rng.pick rng ids) p in
        fp := !fp + report.O.false_positives;
        fn := !fn + report.O.false_negatives;
        msgs := !msgs + report.O.messages;
        hops := max !hops report.O.max_hops;
        delivered := !delivered + Sim.Node_id.Set.cardinal report.O.delivered)
      points;
    print_shape ov;
    Printf.printf "\nevents      : %d (%s)\n" events event_workload;
    Printf.printf "deliveries  : %d\n" !delivered;
    Printf.printf "false neg   : %d\n" !fn;
    Printf.printf "false pos   : %.2f%% of subscribers per event\n"
      (100.0 *. float_of_int !fp /. float_of_int (events * n));
    Printf.printf "msgs/event  : %.1f (flooding: %d)\n"
      (float_of_int !msgs /. float_of_int events)
      (n - 1);
    Printf.printf "max hops    : %d\n" !hops
  in
  Cmd.v (Cmd.info "publish" ~doc:"Publish events and report accuracy/cost.")
    Term.(
      const run $ seed_t $ size_t $ workload_t $ config_t $ transport_t
      $ events_t $ event_workload_t)

(* --- churn ------------------------------------------------------------------- *)

let churn_cmd =
  let crash_t =
    Arg.(value & opt float 0.0 & info [ "crash" ] ~docv:"FRAC" ~doc:"Fraction of nodes to crash.")
  in
  let corrupt_t =
    Arg.(value & opt float 0.0 & info [ "corrupt" ] ~docv:"FRAC" ~doc:"Fraction of nodes to corrupt.")
  in
  let leave_t =
    Arg.(value & opt float 0.0 & info [ "leave" ] ~docv:"FRAC" ~doc:"Fraction of controlled departures.")
  in
  let run seed n workload cfg transport crash corrupt leave =
    let ov, rng = build_overlay ~cfg ~transport ~seed ~n ~workload in
    Printf.printf "before faults:\n";
    print_shape ov;
    if leave > 0.0 then
      List.iter (fun v -> O.leave ov v)
        (Drtree.Corrupt.random_victims ov rng ~fraction:leave);
    if crash > 0.0 then
      List.iter (fun v -> O.crash ov v)
        (Drtree.Corrupt.random_victims ov rng ~fraction:crash);
    if corrupt > 0.0 then
      List.iter (fun v -> ignore (Drtree.Corrupt.any ov rng v))
        (Drtree.Corrupt.random_victims ov rng ~fraction:corrupt);
    let violations = List.length (Inv.check ov) in
    Printf.printf "\nafter faults: %d violations\n" violations;
    Sim.Engine.reset_counters (O.engine ov);
    (match O.stabilize ~max_rounds:200 ~legal:Inv.is_legal ov with
    | Some rounds ->
        Printf.printf "repaired in %d rounds, %d repair messages\n\n" rounds
          (Sim.Engine.messages_sent (O.engine ov))
    | None -> Printf.printf "NOT repaired within 200 rounds\n\n");
    Printf.printf "after repair:\n";
    print_shape ov
  in
  Cmd.v
    (Cmd.info "churn" ~doc:"Apply faults and watch stabilization repair them.")
    Term.(
      const run $ seed_t $ size_t $ workload_t $ config_t $ transport_t
      $ crash_t $ corrupt_t $ leave_t)

(* --- inspect ----------------------------------------------------------------- *)

let inspect_cmd =
  let run seed n workload cfg transport =
    let ov, _ = build_overlay ~cfg ~transport ~seed ~n ~workload in
    print_shape ov;
    Printf.printf "\n";
    (* Print the tree from the root downward. *)
    (match O.designated_root ov with
    | None -> Printf.printf "(empty)\n"
    | Some root ->
        let rec show id h indent =
          match O.state ov id with
          | None -> ()
          | Some s ->
              let mbr =
                match St.mbr_at s h with
                | Some r -> Geometry.Rect.to_string r
                | None -> "?"
              in
              Printf.printf "%s- n%d@h%d %s\n" indent id h mbr;
              if h >= 1 then
                match St.level s h with
                | Some l ->
                    Sim.Node_id.Set.iter
                      (fun c ->
                        if Sim.Node_id.equal c id then
                          show id (h - 1) (indent ^ "  ")
                        else show c (h - 1) (indent ^ "  "))
                      l.St.children
                | None -> ()
        in
        (match O.state ov root with
        | Some s -> show root (St.top s) ""
        | None -> ()));
    ()
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Dump the logical tree of a (small) overlay.")
    Term.(
      const run $ seed_t $ size_t $ workload_t $ config_t $ transport_t)

(* --- export ------------------------------------------------------------------ *)

let export_cmd =
  let format_t =
    Arg.(
      value
      & opt
          (enum
             [ ("dot", `Dot); ("ascii", `Ascii); ("edges", `Edges);
               ("svg", `Svg) ])
          `Dot
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: dot, ascii, edges or svg.")
  in
  let run seed n workload cfg transport format =
    let ov, _ = build_overlay ~cfg ~transport ~seed ~n ~workload in
    match format with
    | `Dot -> print_string (Drtree.Export.to_dot ov)
    | `Ascii -> print_string (Drtree.Export.to_ascii ov)
    | `Svg -> print_string (Drtree.Export.to_svg ov)
    | `Edges ->
        List.iter
          (fun (a, b) -> Printf.printf "n%d -- n%d\n" a b)
          (Drtree.Export.adjacency ov)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export the overlay structure (GraphViz dot, ascii or edge list).")
    Term.(
      const run $ seed_t $ size_t $ workload_t $ config_t $ transport_t
      $ format_t)

(* --- aggregate --------------------------------------------------------------- *)

let aggregate_cmd =
  let fn_t =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun fn -> (Agg.Aggregate.fn_to_string fn, fn))
                Agg.Aggregate.all_fns))
          Agg.Aggregate.Sum
      & info [ "fn" ] ~docv:"FN"
          ~doc:"Aggregate function: count, sum, min, max or avg.")
  in
  let tct_t =
    Arg.(
      value & opt float 0.0
      & info [ "tct" ] ~docv:"TOL"
          ~doc:
            "Temporal coherency tolerance: suppress a child's report when \
             its partial moved by at most this much since the last sent \
             value.")
  in
  let epochs_t =
    Arg.(
      value & opt int 20
      & info [ "epochs" ] ~docv:"COUNT" ~doc:"Evaluation epochs to run.")
  in
  let rect_t =
    Arg.(
      value
      & opt (t4 ~sep:',' float float float float) (0.0, 0.0, 100.0, 100.0)
      & info [ "rect" ] ~docv:"X0,Y0,X1,Y1" ~doc:"Query rectangle.")
  in
  let run seed n workload cfg transport fn tct epochs (x0, y0, x1, y1) =
    let ov, rng = build_overlay ~cfg ~transport ~seed ~n ~workload in
    print_shape ov;
    let rt = Agg.Runtime.attach ov in
    let owner = List.hd (O.alive_ids ov) in
    let rect = Geometry.Rect.make2 ~x0 ~y0 ~x1 ~y1 in
    let qid = Agg.Runtime.register rt ~tct ~owner ~rect fn in
    Printf.printf "\nquery       : %s over [%g,%g]x[%g,%g], tct=%g\n"
      (Agg.Aggregate.fn_to_string fn)
      x0 x1 y0 y1 tct;
    if O.shard_count ov > 1 then begin
      (* The query's shard coverage and merge owner (DESIGN.md §15):
         the fan-out/merge set is a pure function of the grid. *)
      let cover =
        Drtree.Rendezvous.intersecting_shards (O.rendezvous ov) rect
      in
      Printf.printf "coverage    : %d/%d shard(s) [%s] — %s\n"
        (List.length cover) (O.shard_count ov)
        (String.concat "," (List.map string_of_int cover))
        (if List.length cover = 1 then
           Printf.sprintf "single-shard, no cross-shard merge"
         else
           Printf.sprintf "partials merged at the shard-%d root"
             (List.hd cover))
    end;
    (* One integer-valued reading per node per epoch at its filter
       center, random-walking in occasional steps (the slowly-changing
       signal the suppression exploits). *)
    let values = Hashtbl.create 256 in
    let emit () =
      List.iter
        (fun id ->
          match O.state ov id with
          | None -> ()
          | Some s ->
              let v =
                match Hashtbl.find_opt values id with
                | Some v ->
                    if Rng.float rng 1.0 < 0.2 then
                      v +. float_of_int (Rng.int rng 7 - 3)
                    else v
                | None -> float_of_int (20 + Rng.int rng 60)
              in
              Hashtbl.replace values id v;
              Agg.Runtime.inject rt ~from:id
                (Geometry.Rect.center (St.filter s))
                v)
        (O.alive_ids ov)
    in
    let tele = O.telemetry ov in
    Printf.printf "\n%8s %12s %12s %8s %8s %10s\n" "epoch" "value" "oracle"
      "|err|" "sent" "suppressed";
    for _ = 1 to epochs do
      emit ();
      Agg.Runtime.run_epoch rt;
      let e = Agg.Runtime.epoch rt in
      let vs = function None -> "none" | Some v -> Printf.sprintf "%g" v in
      let got =
        match Agg.Runtime.result rt qid with
        | Some (re, v) when re = e -> v
        | Some _ | None -> None
      in
      let expect =
        match Agg.Runtime.oracle rt ~epoch:e qid with
        | Some v -> v
        | None -> None
      in
      let err =
        match (got, expect) with
        | Some g, Some x -> abs_float (g -. x)
        | None, None -> 0.0
        | Some v, None | None, Some v -> abs_float v
      in
      let r =
        match Drtree.Telemetry.last_agg_epoch tele with
        | Some r -> r
        | None -> assert false
      in
      Printf.printf "%8d %12s %12s %8.2f %8d %10d\n" e (vs got) (vs expect)
        err r.Drtree.Telemetry.partials_sent r.Drtree.Telemetry.suppressed
    done;
    let sent = Drtree.Telemetry.agg_sent tele
    and suppr = Drtree.Telemetry.agg_suppressed tele
    and merges = Drtree.Telemetry.agg_merges tele in
    let tree = sent + merges + epochs and flood = n * epochs in
    Printf.printf
      "\ntotals      : %d partials sent, %d suppressed, %d stale-dropped, %d \
       cross-shard merge(s)\n"
      sent suppr
      (Drtree.Telemetry.agg_stale_dropped tele)
      merges;
    Printf.printf "traffic     : %d msgs vs %d flooding (%.1f%% reduction)\n"
      tree flood
      (100.0 *. (1.0 -. (float_of_int tree /. float_of_int flood)))
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:
         "Run a standing spatial aggregate query (TAG/TiNA-style in-network \
          aggregation) over epochs of synthetic readings.")
    Term.(
      const run $ seed_t $ size_t $ workload_t $ config_t $ transport_t
      $ fn_t $ tct_t $ epochs_t $ rect_t)

(* --- fuzz -------------------------------------------------------------------- *)

let fuzz_cmd =
  let traces_t =
    Arg.(
      value & opt int 200
      & info [ "traces" ] ~docv:"COUNT"
          ~doc:"Traces per (mode, schedule) combination.")
  in
  let ops_t =
    Arg.(value & opt int 10 & info [ "ops" ] ~docv:"COUNT" ~doc:"Operations per trace.")
  in
  let nodes_t =
    Arg.(
      value & opt int 8
      & info [ "nodes" ] ~docv:"N" ~doc:"Upper bound on prelude joins per trace.")
  in
  let mode_t =
    Arg.(
      value
      & opt (enum [ ("shared", `Shared); ("mp", `Mp); ("both", `Both) ]) `Both
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Stabilization mode(s) to fuzz: shared, mp or both.")
  in
  let sched_t =
    let names =
      ("all", `All)
      :: List.map
           (fun k -> (Mck.Schedule.kind_to_string k, `Kind k))
           Mck.Schedule.all_kinds
    in
    Arg.(
      value & opt (enum names) `All
      & info [ "sched" ] ~docv:"KIND"
          ~doc:"Adversarial schedule: fifo, random, round-robin, delay-checks or all.")
  in
  let drop_t =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"PROB" ~doc:"Per-step message loss probability.")
  in
  let dup_t =
    Arg.(
      value & opt float 0.0
      & info [ "dup" ] ~docv:"PROB"
          ~doc:"Per-step message duplication probability.")
  in
  let max_seconds_t =
    Arg.(
      value & opt float 0.0
      & info [ "max-seconds" ] ~docv:"SECS"
          ~doc:"Stop fuzzing after this much wall-clock time (0 = no cap).")
  in
  let out_t =
    Arg.(
      value & opt string "repro"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for saved counterexample traces.")
  in
  let replay_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a saved trace instead of fuzzing; exit 1 if it still fails.")
  in
  let probes_t =
    Arg.(
      value & opt int 3
      & info [ "probes" ] ~docv:"COUNT"
          ~doc:"Oracle probe publications at the end of each trace.")
  in
  let differential_t =
    let axis_doc (ax : Mck.Fuzz.axis) =
      Printf.sprintf "$(b,%s) (%s: %s)" ax.name
        (String.concat " vs " (List.map fst ax.variants))
        (match ax.standard with
        | Mck.Fuzz.Exact ->
            "bit-identical verdicts, final shapes and telemetry/byte counters"
        | Mck.Fuzz.Verdict_legality ->
            "verdicts agree, and on clean FIFO traces final size and \
             legality too")
    in
    Arg.(
      value
      & opt
          (some
             (enum (List.map (fun ax -> (ax.Mck.Fuzz.name, ax)) Mck.Fuzz.axes)))
          None
      & info [ "differential" ] ~docv:"AXIS"
          ~doc:
            (Printf.sprintf
               "Run every generated or replayed trace under each variant of \
                AXIS, overriding that field of the trace, and compare the \
                runs: %s. A divergence is saved unshrunk as AXIS-SEED.trace."
               (String.concat ", " (List.map axis_doc Mck.Fuzz.axes))))
  in
  let run seed traces ops nodes mode sched drop dup max_seconds out replay_file
      probes transport config differential =
    if not (drop >= 0.0 && drop < 1.0 && dup >= 0.0 && dup < 1.0) then begin
      Format.eprintf "fuzz: --drop and --dup must lie in [0, 1)@.";
      exit 124
    end;
    if drop +. dup >= 1.0 then begin
      Format.eprintf "fuzz: --drop + --dup must be < 1@.";
      exit 124
    end;
    let label =
      match differential with
      | Some axis -> " the " ^ axis.Mck.Fuzz.name ^ " differential"
      | None -> ""
    in
    let check tr =
      match differential with
      | Some axis -> Mck.Fuzz.differential ~probes axis tr
      | None -> (
          match Mck.Fuzz.run_trace ~probes tr with
          | Mck.Fuzz.Passed -> Ok ()
          | Mck.Fuzz.Failed f ->
              Error (Format.asprintf "%a" Mck.Fuzz.pp_failure f))
    in
    match replay_file with
    | Some file -> (
        match Mck.Trace.load file with
        | Error e ->
            Printf.eprintf "cannot load %s: %s\n" file e;
            exit 2
        | Ok tr -> (
            Format.printf "replaying %s:@.%a@." file Mck.Trace.pp tr;
            match check tr with
            | Ok () -> Printf.printf "trace passes%s: no violation\n" label
            | Error e ->
                Printf.printf "reproduced: %s\n" e;
                exit 1))
    | None -> (
        let modes =
          match mode with
          | `Shared -> [ Mck.Trace.Shared ]
          | `Mp -> [ Mck.Trace.Message_passing ]
          | `Both -> [ Mck.Trace.Shared; Mck.Trace.Message_passing ]
        in
        let scheds =
          match sched with `All -> Mck.Schedule.all_kinds | `Kind k -> [ k ]
        in
        let transport =
          match transport with
          | `Inproc -> Mck.Trace.Inproc
          | `Wire -> Mck.Trace.Wire
        in
        let deadline =
          if max_seconds > 0.0 then Some (Unix.gettimeofday () +. max_seconds)
          else None
        in
        let stop () =
          match deadline with
          | Some d -> Unix.gettimeofday () > d
          | None -> false
        in
        let passed = ref 0 and failed = ref None in
        List.iteri
          (fun mi m ->
            List.iteri
              (fun si sk ->
                let rng = Rng.make (seed + (1000 * mi) + (100 * si)) in
                let i = ref 0 in
                while !i < traces && !failed = None && not (stop ()) do
                  let tr =
                    Mck.Fuzz.random_trace rng ~nodes ~ops ~mode:m ~transport
                      ~sched:sk ~drop ~dup ~config ()
                  in
                  (match check tr with
                  | Ok () -> incr passed
                  | Error e -> failed := Some (!i, tr, e));
                  incr i
                done)
              scheds)
          modes;
        match !failed with
        | None ->
            Printf.printf "fuzz: %d trace(s) passed%s%s\n" !passed label
              (if stop () then " (time cap reached)" else "")
        | Some (i, tr, e) ->
            let save prefix (tr : Mck.Trace.t) =
              if not (Sys.file_exists out) then Sys.mkdir out 0o755;
              let file =
                Filename.concat out
                  (Printf.sprintf "%s-%d.trace" prefix tr.Mck.Trace.seed)
              in
              Mck.Trace.save file tr;
              file
            in
            let file, flag =
              match differential with
              | Some axis ->
                  (* Saved unshrunk: the shrinker minimizes single-run
                     failures. *)
                  Format.printf "%s differential FAILED: %s@.%a@." axis.name e
                    Mck.Trace.pp tr;
                  (save axis.name tr, " --differential " ^ axis.name)
              | None ->
                  Format.printf "trace %d FAILED at %s@." i e;
                  let small, sf = Mck.Shrink.shrink ~probes tr in
                  Format.printf
                    "shrunk to %d prelude join(s) + %d op(s), failing at \
                     %a:@.%a@."
                    (List.length small.Mck.Trace.prelude)
                    (List.length small.Mck.Trace.ops)
                    Mck.Fuzz.pp_failure sf Mck.Trace.pp small;
                  (save "counterexample" small, "")
            in
            Printf.printf "saved %s\n" file;
            Printf.printf "replay with: drtree_cli fuzz --replay %s --probes %d%s\n"
              file probes flag;
            exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Adversarial model checking: fuzz operation traces under hostile \
          schedules, shrink and save counterexamples, replay saved traces."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "$(b,--transport), $(b,--config) and the per-knob flags \
              ($(b,--scheduler), $(b,--detector), $(b,--forest), ...) \
              configure the generated traces; a replayed trace carries its \
              own transport and config line. $(b,--cover-sweep off) plants \
              a known protocol bug the fuzzer must find, shrink and save. \
              Under the wire transport a decode failure is a \
              counterexample. \
              Heartbeat traces inject crashes silently — nobody is told — \
              and additionally assert crash convergence: every victim \
              confirmed dead by its monitors, and zero false kills on clean \
              traces.";
         ])
    Term.(
      const run $ seed_t $ traces_t $ ops_t $ nodes_t $ mode_t $ sched_t
      $ drop_t $ dup_t $ max_seconds_t $ out_t $ replay_t $ probes_t
      $ transport_t $ config_t $ differential_t)

let () =
  let doc = "stabilizing peer-to-peer spatial filters (DR-tree)" in
  let info = Cmd.info "drtree_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ build_cmd; publish_cmd; churn_cmd; inspect_cmd; export_cmd;
            aggregate_cmd; fuzz_cmd ]))
