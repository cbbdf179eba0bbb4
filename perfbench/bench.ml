(* The repository benchmark: four closed-loop workloads over the public
   overlay API, timed from outside the library. perfbench/run.py is the
   entry point (it builds this program, runs it and prints the result
   line); perfbench/README.md says what each workload and metric means.

     bench.exe --workload W --seed S (--seconds T | --ops K) --trace 0|1

   With [--trace 1] every call the benchmark makes into a layer is
   wrapped in a span, and the per-layer metrics are reported; with
   [--trace 0] the wrappers are pass-through and the end-to-end metrics
   are reported. The last line of standard output is the full record as
   JSON: metrics, every deterministic count, the span tree and the
   configuration. *)

module O = Drtree.Overlay
module Inv = Drtree.Invariant
module Cfg = Drtree.Config
module Tele = Drtree.Telemetry
module Codec = Drtree.Message.Codec
module E = Sim.Engine
module Rng = Sim.Rng
module R = Geometry.Rect
module Sg = Workload.Subscription_gen
module Eg = Workload.Event_gen

let now = Sim.Clock.now
let space = Workload.Space.default

(* --- Spans ---------------------------------------------------------------

   A span is one wrapped call into a layer. Spans are aggregated in
   memory into a tree keyed by the path of span names from the root: a
   node holds every call made under the same parent chain, with its
   call count, inclusive time, and the time its child spans covered.
   Self time = inclusive - children. While [tracing] is off nothing is
   recorded. *)

type node = {
  name : string;
  kids : (string, node) Hashtbl.t;
  mutable calls : int;
  mutable total : float;
  mutable child : float;
}

let mk_node name =
  { name; kids = Hashtbl.create 8; calls = 0; total = 0.0; child = 0.0 }

let span_root = mk_node "run"
let cur = ref span_root
let tracing = ref false

let span name f =
  if not !tracing then f ()
  else begin
    let parent = !cur in
    let n =
      match Hashtbl.find_opt parent.kids name with
      | Some n -> n
      | None ->
          let n = mk_node name in
          Hashtbl.add parent.kids name n;
          n
    in
    cur := n;
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    n.calls <- n.calls + 1;
    n.total <- n.total +. dt;
    parent.child <- parent.child +. dt;
    cur := parent;
    r
  end

(* Every span node below the root with its path, in path order. *)
let span_paths () =
  let rec go path n =
    Hashtbl.fold (fun _ k acc -> k :: acc) n.kids []
    |> List.sort (fun a b -> compare a.name b.name)
    |> List.concat_map (fun k ->
           let p = if path = "" then k.name else path ^ "/" ^ k.name in
           (p, k) :: go p k)
  in
  go "" span_root

let self_time k = k.total -. k.child

(* Self time of every span with this name, wherever it nested. *)
let self_s name =
  List.fold_left
    (fun acc (_, k) -> if k.name = name then acc +. self_time k else acc)
    0.0 (span_paths ())

let total_at path =
  match List.assoc_opt path (span_paths ()) with
  | Some k -> k.total
  | None -> 0.0

(* --- Counters the benchmark keeps itself ---------------------------------

   The codec counters exist only in the traced run, whose wire transport
   is the wrapper below; the others count the measured phase of both
   runs ([counting]), so they are deterministic counts too. *)

let counting = ref false
let c_encodes = ref 0
let c_decodes = ref 0
let c_bytes = ref 0
let c_errors = ref 0
let joins = ref 0
let join_msgs = ref 0
let join_hops = ref 0
let inv_calls = ref 0
let fd_rt : Fd.Runtime.t option ref = ref None

(* The codec layer, wrapped: under the traced run the wire transport is
   this record around [Message.Codec] — same frames, same schedule, plus
   a span and counters per call. The untraced run passes
   [Codec.transport] itself. *)
let traced_wire : Drtree.Message.t Sim.Transport.t =
  Sim.Transport.Wire
    {
      encode =
        (fun m ->
          span "codec.encode" (fun () ->
              let s = Codec.encode m in
              if !tracing then begin
                incr c_encodes;
                c_bytes := !c_bytes + String.length s
              end;
              s));
      decode =
        (fun s ->
          span "codec.decode" (fun () ->
              let r = Codec.decode s in
              if !tracing then begin
                incr c_decodes;
                match r with Ok _ -> () | Error _ -> incr c_errors
              end;
              r));
    }

(* --- Deterministic counts ------------------------------------------------

   A pure function of the seed and the number of operations run: the
   traced and untraced runs of one seed and operation count must agree
   on all of them (perfbench/compare.py checks). *)

type counts = (string * int) list

let snapshot ov : counts =
  let eng = O.engine ov and tele = O.telemetry ov in
  let kind k = (Tele.traffic_of tele k).Tele.sent_msgs in
  let rounds = Tele.rounds tele in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rounds in
  [
    ("engine.events", E.events_processed eng);
    ("engine.msgs", E.messages_sent eng);
    ("engine.self_msgs", E.self_messages eng);
    ("engine.dropped", E.messages_dropped eng);
    ("engine.bytes", E.bytes_sent eng);
    ("engine.decode_errors", E.decode_errors eng);
    ("repair.rounds", List.length rounds);
    ("repair.execs", Tele.execs tele);
    ("repair.probes", sum (fun r -> r.Tele.probes));
    ("repair.round_msgs", sum (fun r -> r.Tele.messages));
    ("repair.fixes_mbr", Tele.repair_count tele Tele.Mbr);
    ("repair.fixes_children", Tele.repair_count tele Tele.Children);
    ("repair.fixes_parent", Tele.repair_count tele Tele.Parent);
    ("repair.fixes_cover", Tele.repair_count tele Tele.Cover);
    ("repair.fixes_structure", Tele.repair_count tele Tele.Structure);
    ("election.fixes_root", Tele.repair_count tele Tele.Root);
    ("agg.partials", Tele.agg_sent tele);
    ("agg.suppressed", Tele.agg_suppressed tele);
    ("agg.stale", Tele.agg_stale_dropped tele);
    ("agg.merges", Tele.agg_merges tele);
    ("fd.waves", match !fd_rt with Some rt -> Fd.Runtime.wave rt | None -> 0);
    ("fd.heartbeat_msgs", kind "HEARTBEAT");
    ("fd.suspect_msgs", kind "SUSPECT");
    ("fd.suspicions", Tele.fd_suspicions tele);
    ("fd.false_suspicions", Tele.fd_false_suspicions tele);
    ("fd.confirms", Tele.fd_confirms tele);
    ("fd.false_kills", Tele.fd_false_kills tele);
  ]

let zero_counts = List.map (fun (k, _) -> (k, 0))
let add_counts = List.map2 (fun (k, x) (_, y) -> (k, x + y))
let sub_counts = List.map2 (fun (k, x) (_, y) -> (k, x - y))

(* --- Calls into the layers ----------------------------------------------- *)

let legal ov =
  if !counting then incr inv_calls;
  span "invariant.check" (fun () -> Inv.is_legal ov)

let round ?fd ov =
  (match fd with
  | Some rt -> span "fd.tick" (fun () -> Fd.Runtime.tick rt)
  | None -> ());
  span "repair.round" (fun () -> O.stabilize_round ov)

let max_rounds = 200

(* The untraced run calls [Overlay.stabilize]. The traced run replays
   its loop one [stabilize_round] at a time — spin rounds while the
   dirty set is non-empty, confirm with one legality check once it is
   empty, escalate a quiescent-but-illegal tree to a full sweep — so
   each round and each check is its own span. Under the heartbeat
   detector [Fd.Runtime.tick] runs just before each round, which leaves
   the round's own tick a no-op. *)
let stabilize ?fd ov =
  if not !tracing then O.stabilize ~max_rounds ~legal ov
  else
    let mark_all () =
      O.iter_states ov (fun id s ->
          for h = 0 to Drtree.State.top s do
            O.mark_dirty ov id h
          done)
    in
    let rec loop rounds =
      if O.dirty_size ov = 0 then
        if legal ov then Some rounds
        else if rounds >= max_rounds then None
        else begin
          mark_all ();
          round ?fd ov;
          loop (rounds + 1)
        end
      else if rounds >= max_rounds then if legal ov then Some rounds else None
      else begin
        round ?fd ov;
        loop (rounds + 1)
      end
    in
    loop 0

(* [Overlay.join] is [join_async] then a drain; the traced run times
   the two apart. *)
let join ov r =
  let eng = O.engine ov in
  let m0 = E.messages_sent eng in
  let id =
    span "membership.join" (fun () ->
        let id = O.join_async ov r in
        span "engine.drain" (fun () -> O.run ov);
        id)
  in
  if !counting then begin
    incr joins;
    join_msgs := !join_msgs + E.messages_sent eng - m0;
    join_hops := !join_hops + O.last_join_hops ov
  end;
  id

(* --- Statistics ----------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* The highest percentile of a fixed ladder with at least ten samples
   beyond it, as (percentile, value, samples beyond). Below 100 samples
   no rung qualifies and the tail is the maximum (percentile 100, none
   beyond): the ladder has no rung under 90, so a run's tail never
   drops to a middle percentile. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let rung p =
    let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    if n - 1 - i >= 10 then Some (p, a.(i), n - 1 - i) else None
  in
  match List.find_map rung [ 99.99; 99.9; 99.0; 95.0; 90.0 ] with
  | Some t -> t
  | None -> (100.0, (if n = 0 then nan else a.(n - 1)), 0)

(* --- Workloads ------------------------------------------------------------ *)

type measured = {
  mutable ops : int;
  mutable failed : int;
  samples : (string, float list) Hashtbl.t;  (** newest first *)
}

let add_sample m k v =
  Hashtbl.replace m.samples k
    (v :: Option.value ~default:[] (Hashtbl.find_opt m.samples k))

let samples m k = List.rev (Option.value ~default:[] (Hashtbl.find_opt m.samples k))

(* One failed check fails the operation it happened in; [step] returns
   whether its operation passed every check. *)
let check ok what =
  if not ok then Printf.printf "FAILED: %s\n%!" what;
  ok

type workload = {
  w_name : string;
  w_cfg : Cfg.t;
  w_wire : bool;
  w_n : int;
  w_op : string;  (** the sample key holding each operation's latency, ms *)
  w_setup_reps : int;
      (** set-ups per run; [setup_s] is their median, so cheap set-ups
          repeat more to steady it *)
  w_episode : int;
      (** operations per fresh set-up, [0] for one set-up per run: the
          library keeps every spawned id, every publish's delivery record
          and every aggregation reading, so on a long-lived overlay each
          operation costs more time and memory as the run goes on, and a
          run's median and peak memory would depend on its length *)
  w_setup : trace:bool -> int -> (measured -> bool) * (unit -> O.t);
      (** [w_setup ~trace seed] builds the workload's state and returns
          [step], one operation, and the overlay counts are read from *)
}

let transport ~trace ~wire =
  if not wire then None
  else if trace then Some traced_wire
  else Some Codec.transport

(* The set-up build of publish-16k and aggregate-4k: [n] uniform filters
   joined one at a time, then stabilized to legality. *)
let build_overlay ~trace ~cfg ~wire ~seed ~n =
  let rng = Rng.make seed in
  let rects = Sg.uniform () space rng n in
  let ov = O.create ~cfg ?transport:(transport ~trace ~wire) ~seed () in
  List.iter (fun r -> ignore (O.join ov r)) rects;
  let ok = O.stabilize ~max_rounds ~legal:Inv.is_legal ov <> None in
  if not (check ok "set-up build did not converge") then
    failwith "set-up failed";
  (ov, rng)

(* build-65k: E23's top rung. Every operation joins the same seeded
   65536 filters one at a time into a fresh overlay and stabilizes it to
   legality, so repeated builds in one run measure the same work. *)
let build_65k =
  let n = 65536 in
  let cfg = Cfg.default in
  {
    w_name = "build-65k";
    w_cfg = cfg;
    w_wire = false;
    w_n = n;
    w_op = "build_ms";
    w_setup_reps = 9;
    w_episode = 0;
    w_setup =
      (fun ~trace:_ seed ->
        let rects = Sg.uniform () space (Rng.make seed) n in
        let last = ref (O.create ~cfg ~seed ()) in
        let step m =
          let ov = O.create ~cfg ~seed () in
          last := ov;
          let t0 = now () in
          List.iter (fun r -> ignore (join ov r)) rects;
          let rounds = stabilize ov in
          add_sample m "build_ms" ((now () -. t0) *. 1e3);
          (match rounds with
          | Some r -> add_sample m "rounds_to_legal" (float_of_int r)
          | None -> ());
          check (rounds <> None) "build did not reach a legal tree"
        in
        (step, fun () -> !last));
  }

(* publish-16k: one publisher in a closed loop over a fixed seeded mix
   of uniform and Zipf-grid points, each published from a random live
   process, on a built N=16384 overlay over the wire codec. *)
let publish_16k =
  let n = 16384 in
  let cfg = Cfg.default in
  {
    w_name = "publish-16k";
    w_cfg = cfg;
    w_wire = true;
    w_n = n;
    w_op = "publish_ms";
    w_setup_reps = 5;
    w_episode = 2000;
    w_setup =
      (fun ~trace seed ->
        let ov, rng = build_overlay ~trace ~cfg ~wire:true ~seed ~n in
        let pool = 4096 in
        let uni = Eg.uniform space rng (pool / 2) in
        let zipf = Eg.zipf_grid () space rng (pool / 2) in
        let points = Array.of_list (Rng.shuffle rng (uni @ zipf)) in
        let ids = Array.of_list (O.alive_ids ov) in
        let from = Array.init pool (fun _ -> Rng.pick_array rng ids) in
        let net = O.access ov and eng = O.engine ov in
        let i = ref 0 in
        let step m =
          let k = !i mod pool in
          incr i;
          let m0 = E.messages_sent eng and b0 = E.bytes_sent eng in
          let t0 = now () in
          let rep =
            span "dissemination.publish" (fun () ->
                Drtree.Dissemination.publish net
                  ~run:(fun () -> span "engine.drain" (fun () -> O.run ov))
                  ~from:from.(k) points.(k))
          in
          add_sample m "publish_ms" ((now () -. t0) *. 1e3);
          add_sample m "publish_msgs" (float_of_int (E.messages_sent eng - m0));
          add_sample m "publish_bytes" (float_of_int (E.bytes_sent eng - b0));
          add_sample m "fp" (float_of_int rep.Drtree.Dissemination.false_positives);
          add_sample m "fn" (float_of_int rep.false_negatives);
          add_sample m "hops" (float_of_int rep.max_hops);
          check (rep.false_negatives = 0)
            (Printf.sprintf "publish %d: %d false negatives" !i rep.false_negatives)
        in
        (step, fun () -> ov));
  }

(* recover-4k: fault bursts under the heartbeat detector (E28's quietest
   cell). One operation is one cycle: a marked 2% corruption burst
   stabilized back to legal, a 5% silent-crash burst run round by round
   until every victim is convicted and the tree is legal, then as many
   fresh joins as crashes, so N stays fixed. *)
let recover_4k =
  let n = 4096 in
  let detector =
    Cfg.Heartbeat { period = 1.0; timeout_factor = 32; fallbacks = 2 }
  in
  let cfg = Cfg.make ~detector () in
  {
    w_name = "recover-4k";
    w_cfg = cfg;
    w_wire = false;
    w_n = n;
    w_op = "cycle_ms";
    w_setup_reps = 5;
    w_episode = 4;
    w_setup =
      (fun ~trace:_ seed ->
        let rng = Rng.make seed in
        let rects = Sg.uniform () space rng n in
        let ov = O.create ~cfg ~seed () in
        let rt = Fd.Runtime.attach ov in
        fd_rt := Some rt;
        List.iter (fun r -> ignore (O.join ov r)) rects;
        let ok = O.stabilize ~max_rounds ~legal:Inv.is_legal ov <> None in
        if not (check ok "set-up build did not converge") then
          failwith "set-up failed";
        let eng = O.engine ov and tele = O.telemetry ov in
        let step m =
          let c0 = now () in
          (* 1. corruption burst *)
          let m0 = E.messages_sent eng in
          let t0 = now () in
          let victims = Drtree.Corrupt.random_victims ov rng ~fraction:0.02 in
          List.iter (fun v -> ignore (Drtree.Corrupt.any ov rng v)) victims;
          let corrupt = stabilize ~fd:rt ov in
          add_sample m "corrupt_recover_s" (now () -. t0);
          add_sample m "recovery_msgs" (float_of_int (E.messages_sent eng - m0));
          (match corrupt with
          | Some r -> add_sample m "rounds_to_legal" (float_of_int r)
          | None -> ());
          (* 2. silent-crash burst *)
          let m0 = E.messages_sent eng and fk0 = Tele.fd_false_kills tele in
          let t0 = now () in
          let victims = Drtree.Corrupt.random_victims ov rng ~fraction:0.05 in
          List.iter (fun v -> O.crash_silent ov v) victims;
          let converged () =
            List.for_all (fun v -> Fd.Runtime.is_confirmed rt v) victims
            && legal ov
          in
          let rounds = ref 0 in
          while (not (converged ())) && !rounds < max_rounds do
            incr rounds;
            round ~fd:rt ov
          done;
          let crash_ok = !rounds < max_rounds || converged () in
          add_sample m "crash_recover_s" (now () -. t0);
          add_sample m "recovery_msgs" (float_of_int (E.messages_sent eng - m0));
          add_sample m "rounds_to_legal" (float_of_int !rounds);
          let false_kills = Tele.fd_false_kills tele - fk0 in
          (* 3. fresh joins restore N *)
          List.iter
            (fun r -> ignore (join ov r))
            (Sg.uniform () space rng (List.length victims));
          let rejoin = stabilize ~fd:rt ov in
          add_sample m "cycle_ms" ((now () -. c0) *. 1e3);
          let ok1 = check (corrupt <> None) "corruption burst: not legal within the round budget" in
          let ok2 = check crash_ok "crash burst: a victim not convicted or the tree not legal" in
          let ok3 = check (false_kills = 0) (Printf.sprintf "crash burst: %d false kills" false_kills) in
          let ok4 = check (rejoin <> None) "rejoin: not legal within the round budget" in
          ok1 && ok2 && ok3 && ok4
        in
        (step, fun () -> ov));
  }

(* aggregate-4k: continuous aggregation on a 4-shard forest over the
   wire — E24's four standing queries at tct = 0, one integer-valued
   random-walk reading per process per epoch at its filter centre, so
   every result must equal the brute-force oracle exactly. *)
let aggregate_4k =
  let n = 4096 in
  let cfg = Cfg.make ~forest:(Cfg.Sharded { shards = 4 }) () in
  {
    w_name = "aggregate-4k";
    w_cfg = cfg;
    w_wire = true;
    w_n = n;
    w_op = "epoch_ms";
    w_setup_reps = 5;
    w_episode = 50;
    w_setup =
      (fun ~trace seed ->
        let ov, rng = build_overlay ~trace ~cfg ~wire:true ~seed ~n in
        let rt = Agg.Runtime.attach ov in
        let ids = O.alive_ids ov in
        let owner = List.hd ids in
        let reg x0 y0 x1 y1 fn =
          Agg.Runtime.register rt ~tct:0.0 ~owner ~rect:(R.make2 ~x0 ~y0 ~x1 ~y1) fn
        in
        let qids =
          [
            reg 0.0 0.0 100.0 100.0 Agg.Aggregate.Count;
            reg 0.0 0.0 50.0 100.0 Agg.Aggregate.Sum;
            reg 25.0 25.0 75.0 75.0 Agg.Aggregate.Avg;
            reg 50.0 0.0 100.0 50.0 Agg.Aggregate.Max;
          ]
        in
        O.run ov;
        let producers =
          List.filter_map
            (fun id ->
              Option.map
                (fun s ->
                  (id, R.center (Drtree.State.filter s),
                   ref (float_of_int (20 + Rng.int rng 60))))
                (O.state ov id))
            ids
        in
        let eng = O.engine ov in
        let step m =
          let m0 = E.messages_sent eng in
          let t0 = now () in
          List.iter
            (fun (id, p, v) ->
              if Rng.float rng 1.0 < 0.2 then
                v := !v +. float_of_int (Rng.int rng 7 - 3);
              Agg.Runtime.inject rt ~from:id p !v)
            producers;
          span "agg.epoch" (fun () -> Agg.Runtime.run_epoch rt);
          add_sample m "epoch_ms" ((now () -. t0) *. 1e3);
          add_sample m "epoch_msgs" (float_of_int (E.messages_sent eng - m0));
          let e = Agg.Runtime.epoch rt in
          let inexact =
            List.filter
              (fun q ->
                match Agg.Runtime.result rt q with
                | Some (re, got) -> re <> e || Some got <> Agg.Runtime.oracle rt ~epoch:e q
                | None -> true)
              qids
          in
          add_sample m "inexact" (float_of_int (List.length inexact));
          check (inexact = [])
            (Printf.sprintf "epoch %d: %d results differ from the oracle" e
               (List.length inexact))
        in
        (step, fun () -> ov));
  }

let workloads = [ build_65k; publish_16k; recover_4k; aggregate_4k ]

(* --- JSON ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list

let rec to_json b = function
  | Num f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Str s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (Printf.sprintf "%S: " k);
          to_json b v)
        kvs;
      Buffer.add_char b '}'

(* --- Main ------------------------------------------------------------------ *)

type budget = Seconds of float | Ops of int

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N (--seconds T | --ops K) \
     --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and budget = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest ->
        budget := Option.map (fun s -> Seconds s) (float_of_string_opt v);
        go rest
    | "--ops" :: v :: rest ->
        budget := Option.map (fun k -> Ops k) (int_of_string_opt v);
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match
    (List.find_opt (fun w -> w.w_name = !workload) workloads, !seed, !budget, !trace)
  with
  | Some w, Some seed, Some budget, Some trace -> (w, seed, budget, trace)
  | _ -> usage ()

let () =
  let w, seed, budget, trace = parse_args () in
  let m = { ops = 0; failed = 0; samples = Hashtbl.create 16 } in
  (* Set-up runs [w_setup_reps] times, each on a compacted heap; the
     last one's state is measured. *)
  let step = ref (fun _ -> true) and current = ref (fun () -> O.create ~seed ()) in
  for _ = 1 to w.w_setup_reps do
    Gc.compact ();
    let t0 = now () in
    let s, c = w.w_setup ~trace seed in
    add_sample m "setup_s" (now () -. t0);
    step := s;
    current := c
  done;
  (* The measured phase. Counts accumulate per operation, so a workload
     that builds a fresh overlay per operation sums them. A workload with
     an episode length re-runs its set-up (from a derived seed, untraced,
     outside any operation's latency) every [w_episode] operations. *)
  let acc = ref (zero_counts (snapshot (!current ()))) in
  (* summed detection latency of true convictions, from the telemetry
     mean over them *)
  let latency_sum ov =
    let tele = O.telemetry ov in
    match Tele.fd_mean_detection_latency tele with
    | Some l -> l *. float_of_int (Tele.fd_confirms tele - Tele.fd_false_kills tele)
    | None -> 0.0
  in
  let latency_sum_acc = ref 0.0 in
  let gc0 = Gc.quick_stat () in
  tracing := trace;
  counting := true;
  let t0 = now () in
  let more () =
    match budget with
    | Ops k -> m.ops < k
    | Seconds s -> m.ops = 0 || now () -. t0 < s
  in
  let episode = ref 0 in
  while more () do
    if w.w_episode > 0 && m.ops > 0 && m.ops mod w.w_episode = 0 then begin
      tracing := false;
      counting := false;
      incr episode;
      let s, c = w.w_setup ~trace (seed + (!episode * 1_000_003)) in
      step := s;
      current := c;
      tracing := trace;
      counting := true
    end;
    let ov0 = !current () in
    let before = snapshot ov0 and lat0 = latency_sum ov0 in
    let ok = !step m in
    let ov1 = !current () in
    let after = snapshot ov1 in
    acc := add_counts !acc (if ov0 == ov1 then sub_counts after before else after);
    latency_sum_acc :=
      !latency_sum_acc +. latency_sum ov1 -. (if ov0 == ov1 then lat0 else 0.0);
    m.ops <- m.ops + 1;
    if not ok then m.failed <- m.failed + 1
  done;
  let elapsed = now () -. t0 in
  tracing := false;
  counting := false;
  let gc1 = Gc.quick_stat () in
  let ops = float_of_int m.ops in
  let s k = samples m k in
  let c k = List.assoc k !acc in
  let fsum k = int_of_float (sum (s k)) in
  let counts =
    !acc
    @ [
        ("ops", m.ops);
        ("failed", m.failed);
        ("membership.joins", !joins);
        ("membership.join_msgs", !join_msgs);
        ("membership.join_hops", !join_hops);
        ("invariant.calls", !inv_calls);
        ("dissemination.publishes", List.length (s "publish_ms"));
        ("dissemination.fp", fsum "fp");
        ("dissemination.fn", fsum "fn");
        ("dissemination.hops", fsum "hops");
        ("agg.epochs", List.length (s "epoch_ms"));
        ("agg.inexact", fsum "inexact");
      ]
  in
  (* End-to-end: one operation is the workload's unit of work (a build,
     a publish, a fault cycle, an epoch). *)
  let op = s w.w_op in
  let e2e =
    [
      ("setup_s", median (s "setup_s"), "s");
      ("op_p50_ms", median op, "ms");
      ("ops_per_s", ops /. elapsed, "1/s");
      ("msgs_per_op", float_of_int (c "engine.msgs") /. ops, "count");
    ]
  in
  let with_tail name unit xs =
    let p, v, beyond = tail xs in
    [ (name, v, unit); (name ^ "_pct", p, "%"); (name ^ "_beyond", float_of_int beyond, "count") ]
  in
  (* The workload's own metrics, under the names the benchmark's
     README uses for them. *)
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let wl =
    match w.w_name with
    | "build-65k" ->
        [
          ("build_s", median op /. 1e3, "s");
          ("rounds_to_legal", mean (s "rounds_to_legal"), "count");
          ("msgs_per_join", ratio (float_of_int !join_msgs) (float_of_int !joins), "count");
        ]
    | "publish-16k" ->
        let us = List.map (fun x -> x *. 1e3) op in
        [
          ("publish_per_s", ops /. elapsed, "1/s");
          ("publish_p50_us", median us, "us");
        ]
        @ with_tail "publish_tail_us" "us" us
        @ [
          ("msgs_per_publish", mean (s "publish_msgs"), "count");
          ("bytes_per_publish", mean (s "publish_bytes"), "B");
          ("fp_rate", ratio (sum (s "fp")) (ops *. float_of_int w.w_n), "ratio");
          ("hops_per_publish", mean (s "hops"), "count");
        ]
    | "recover-4k" ->
        [
          ("corrupt_recover_s", median (s "corrupt_recover_s"), "s");
          ("crash_recover_s", median (s "crash_recover_s"), "s");
          ("rounds_to_legal", mean (s "rounds_to_legal"), "count");
          ("msgs_per_recovery", mean (s "recovery_msgs"), "count");
        ]
    | _ ->
        [ ("epoch_p50_ms", median op, "ms") ]
        @ with_tail "epoch_tail_ms" "ms" op
        @ [ ("msgs_per_epoch", mean (s "epoch_msgs"), "count") ]
  in
  (* Per-layer, from the traced run: counts over the measured phase and
     span self times (the time a layer's calls took minus the time their
     nested spans — drains, codec calls — took). *)
  let fc k = float_of_int (c k) in
  let fixes =
    List.fold_left (fun a k -> a + c k) 0
      [ "repair.fixes_mbr"; "repair.fixes_children"; "repair.fixes_parent";
        "repair.fixes_cover"; "repair.fixes_structure"; "election.fixes_root" ]
  in
  let publish_s = total_at "dissemination.publish" in
  let publish_drain_s = total_at "dissemination.publish/engine.drain" in
  let layers =
    [
      ("engine.events", fc "engine.events", "count");
      ("engine.msgs", fc "engine.msgs", "count");
      ("engine.self_msgs", fc "engine.self_msgs", "count");
      ("engine.dropped", fc "engine.dropped", "count");
      ("engine.drain_s", self_s "engine.drain", "s");
      ("codec.encodes", float_of_int !c_encodes, "count");
      ("codec.decodes", float_of_int !c_decodes, "count");
      ("codec.encode_s", self_s "codec.encode", "s");
      ("codec.decode_s", self_s "codec.decode", "s");
      ("codec.bytes", float_of_int !c_bytes, "B");
      ("codec.decode_errors", float_of_int (!c_errors + c "engine.decode_errors"), "count");
      ("membership.joins", float_of_int !joins, "count");
      ("membership.join_s", self_s "membership.join", "s");
      ("membership.join_msgs", float_of_int !join_msgs, "count");
      ("membership.join_hops", float_of_int !join_hops, "count");
      ("repair.rounds", fc "repair.rounds", "count");
      ("repair.round_s", self_s "repair.round", "s");
      ("repair.execs", fc "repair.execs", "count");
      ("repair.probes", fc "repair.probes", "count");
      ("repair.round_msgs", fc "repair.round_msgs", "count");
      ("repair.fixes", float_of_int fixes, "count");
      ("repair.fixes_mbr", fc "repair.fixes_mbr", "count");
      ("repair.fixes_children", fc "repair.fixes_children", "count");
      ("repair.fixes_parent", fc "repair.fixes_parent", "count");
      ("repair.fixes_cover", fc "repair.fixes_cover", "count");
      ("repair.fixes_structure", fc "repair.fixes_structure", "count");
      ("election.fixes_root", fc "election.fixes_root", "count");
      ("repair.useful_ratio", ratio (float_of_int fixes) (fc "repair.execs"), "ratio");
      ("invariant.calls", float_of_int !inv_calls, "count");
      ("invariant.check_s", self_s "invariant.check", "s");
      ("dissemination.publish_s", publish_s, "s");
      ("dissemination.drain_s", publish_drain_s, "s");
      ("dissemination.match_s", publish_s -. publish_drain_s, "s");
      ("dissemination.fp", sum (s "fp"), "count");
      ("dissemination.fn", sum (s "fn"), "count");
      ("dissemination.hops", (match s "hops" with [] -> 0.0 | h -> mean h), "count");
      ("fd.tick_s", self_s "fd.tick", "s");
      ("fd.waves", fc "fd.waves", "count");
      ("fd.heartbeat_msgs", fc "fd.heartbeat_msgs", "count");
      ("fd.suspect_msgs", fc "fd.suspect_msgs", "count");
      ("fd.suspicions", fc "fd.suspicions", "count");
      ("fd.false_suspicions", fc "fd.false_suspicions", "count");
      ( "fd.useful_ratio",
        ratio (fc "fd.suspicions" -. fc "fd.false_suspicions") (fc "fd.suspicions"),
        "ratio" );
      ("fd.confirms", fc "fd.confirms", "count");
      ("fd.false_kills", fc "fd.false_kills", "count");
      ( "fd.detect_latency",
        ratio !latency_sum_acc (fc "fd.confirms" -. fc "fd.false_kills"),
        "sim_s" );
      ("agg.epoch_s", self_s "agg.epoch", "s");
      ("agg.partials", fc "agg.partials", "count");
      ("agg.suppressed", fc "agg.suppressed", "count");
      ("agg.stale", fc "agg.stale", "count");
      ("agg.merges", fc "agg.merges", "count");
      ("agg.inexact", sum (s "inexact"), "count");
      ( "gc.minor_words_per_op",
        (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. ops,
        "words" );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
        "count" );
    ]
  in
  let metric_obj l =
    Obj (List.map (fun (k, v, u) -> (k, Obj [ ("value", Num v); ("unit", Str u) ])) l)
  in
  let print_table title l =
    Printf.printf "%s\n" title;
    List.iter (fun (k, v, u) -> Printf.printf "  %-28s %14.6g %s\n" k v u) l
  in
  Printf.printf "%s  seed %d  trace %d  N=%d  %s  transport %s\n" w.w_name seed
    (Bool.to_int trace) w.w_n
    (Format.asprintf "%a" Cfg.pp w.w_cfg)
    (if w.w_wire then "wire" else "inproc");
  Printf.printf "%d operations in %.3f s, %d failed\n" m.ops elapsed m.failed;
  print_table "end to end:" e2e;
  print_table "workload:" wl;
  if trace then begin
    print_table "per layer:" layers;
    Printf.printf "spans (path, calls, inclusive s, self s):\n";
    List.iter
      (fun (p, k) ->
        Printf.printf "  %-48s %9d %10.4f %10.4f\n" p k.calls k.total (self_time k))
      (span_paths ())
  end;
  let record =
    Obj
      [
        ("workload", Str w.w_name);
        ("seed", Int seed);
        ("trace", Bool trace);
        ( "budget",
          match budget with
          | Seconds x -> Obj [ ("seconds", Num x) ]
          | Ops k -> Obj [ ("ops", Int k) ] );
        ("n", Int w.w_n);
        ("config", Str (Format.asprintf "%a" Cfg.pp w.w_cfg));
        ("transport", Str (if w.w_wire then "wire" else "inproc"));
        ("ocaml", Str Sys.ocaml_version);
        ("attempted", Int m.ops);
        ("failed", Int m.failed);
        ("elapsed_s", Num elapsed);
        ("op_samples", Int (List.length op));
        ("end_to_end", metric_obj e2e);
        ("workload_metrics", metric_obj wl);
        ("per_layer", metric_obj layers);
        ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) counts));
        ( "spans",
          Obj
            (List.map
               (fun (p, k) ->
                 ( p,
                   Obj
                     [ ("calls", Int k.calls); ("total_s", Num k.total);
                       ("self_s", Num (self_time k)) ] ))
               (span_paths ())) );
      ]
  in
  let b = Buffer.create 4096 in
  to_json b record;
  print_string (Buffer.contents b);
  print_newline ()
