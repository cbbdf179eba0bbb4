module O = Drtree.Overlay
module Inv = Drtree.Invariant
module R = Geometry.Rect
module P = Geometry.Point
module Rng = Sim.Rng

type location = [ `Prelude of int | `Op of int | `Final ]
type failure = { at : location; what : string }
type outcome = Passed | Failed of failure

let pp_location ppf = function
  | `Prelude i -> Format.fprintf ppf "prelude[%d]" i
  | `Op i -> Format.fprintf ppf "op[%d]" i
  | `Final -> Format.pp_print_string ppf "final"

let pp_failure ppf f =
  Format.fprintf ppf "%a: %s" pp_location f.at f.what

(* Lemma 3.3-style budget: O(N) rounds, with generous constants so a
   failure means divergence, not a tight bound. *)
let round_bound n = (4 * max 4 n) + 20

(* Largest height a legal tree on [n] processes can have: the root has
   >= 2 children and every other interior instance >= m, so
   n >= 2 * m^(h-1). *)
let height_bound ~min_fill n =
  if n <= 1 then 0
  else begin
    let h = ref 1 and cap = ref 2 in
    while !cap * min_fill <= n do
      incr h;
      cap := !cap * min_fill
    done;
    !h
  end

let describe_violations ov =
  match Inv.check ov with
  | [] -> None
  | vs ->
      let n = List.length vs in
      let shown = List.filteri (fun i _ -> i < 3) vs in
      Some
        (Format.asprintf "%d violation(s): %a" n
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
              Inv.pp_violation)
           shown)

(* Shape fingerprint of the overlay a trace leaves behind — every
   differential compares these ([legal] records the final verdict of
   the invariant). *)
type summary = { final_size : int; final_height : int; final_legal : bool }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d height=%d legal=%b" s.final_size s.final_height
    s.final_legal

(* Counter fingerprint of a run: every telemetry and engine counter
   that could observe a difference between two realizations. The
   differentials compare these on every trace — their variants share
   every RNG draw and every iteration-order-sensitive path sorts
   before use, so any divergence at all is a bug, never schedule
   noise. *)
type fingerprint = {
  fp_probes : int;
  fp_execs : int;
  fp_repairs : int;
  fp_rounds : int;
  fp_msgs_sent : int;
  fp_selfs : int;
  fp_lost : int;
  fp_duplicated : int;
  fp_events : int;
  fp_bytes_sent : int;
  fp_bytes_received : int;
  fp_bytes_lost : int;
  fp_traffic : (string * int * int * int * int) list;
      (* kind, sent msgs/bytes, recv msgs/bytes; kind-sorted *)
}

let pp_fingerprint ppf f =
  Format.fprintf ppf
    "probes=%d execs=%d repairs=%d rounds=%d sent=%d selfs=%d lost=%d dup=%d \
     events=%d bytes=%d/%d/%d traffic=[%a]"
    f.fp_probes f.fp_execs f.fp_repairs f.fp_rounds f.fp_msgs_sent f.fp_selfs
    f.fp_lost f.fp_duplicated f.fp_events f.fp_bytes_sent f.fp_bytes_received
    f.fp_bytes_lost
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       (fun ppf (k, sm, sb, rm, rb) ->
         Format.fprintf ppf "%s:%d/%d/%d/%d" k sm sb rm rb))
    f.fp_traffic

let run_trace_full ?(probes = 3) (tr : Trace.t) =
  let cfg = tr.Trace.config in
  let transport =
    match tr.Trace.transport with
    | Trace.Inproc -> Sim.Transport.inproc
    | Trace.Wire -> Drtree.Message.Codec.transport
  in
  let ov = O.create ~cfg ~transport ~seed:tr.Trace.seed () in
  let eng = O.engine ov in
  let strat =
    (* Wire traces meter the adversary's duplication budget in frame
       bytes (same default allowance scaled by a typical small frame),
       so a fat Report costs more adversary power than a Check_mbr. *)
    let dup_budget =
      match tr.Trace.transport with
      | Trace.Inproc -> Schedule.Messages 64
      | Trace.Wire -> Schedule.Bytes (64 * 32)
    in
    Schedule.make ~drop:tr.Trace.drop ~dup:tr.Trace.dup ~dup_budget
      ~seed:(tr.Trace.seed lxor 0x5eed) tr.Trace.sched
  in
  Schedule.install strat eng;
  (* Under message loss or duplication no per-op guarantee holds (a
     dropped JOIN legitimately strands the joiner until stabilization),
     so faulty traces assert only eventual convergence. *)
  let faulty = tr.Trace.drop > 0.0 || tr.Trace.dup > 0.0 in
  (* Per-op legality (Lemma 3.2) is a sequential-execution property: a
     hostile reordering can run a COVER_SWEEP before the ADD_CHILD it
     should have observed, leaving a transient non-optimality that only
     stabilization repairs. So immediate checks apply under FIFO
     only. *)
  let strict = (not faulty) && tr.Trace.sched = Schedule.Fifo in
  (* Attached on the first Agg_query op; traces without one never pay
     for the aggregation runtime. Aggregation exactness is asserted
     forest-wide: lib/agg fans subscriptions out to every covered
     shard and merge-owns the finalize (DESIGN.md §15), so the
     whole-population oracle applies at any shard count. *)
  let agg = lazy (Agg.Runtime.attach ov) in
  (* Heartbeat traces run the failure detector: Crash ops turn silent
     (nobody is told — the detector must notice), and the run
     additionally asserts the crash-convergence property at the end. *)
  let fd =
    match cfg.Drtree.Config.detector with
    | Drtree.Config.Oracle -> None
    | Drtree.Config.Heartbeat _ -> Some (Fd.Runtime.attach ov)
  in
  let victims = ref [] in
  let dirty = ref false in
  let failure = ref None in
  let fail at fmt =
    Format.kasprintf
      (fun what -> if !failure = None then failure := Some { at; what })
      fmt
  in
  let guard at f =
    try f ()
    with exn -> fail at "exception escaped: %s" (Printexc.to_string exn)
  in
  let check_legal at =
    if strict && not !dirty then
      match describe_violations ov with
      | Some what -> fail at "illegal state: %s" what
      | None -> ()
  in
  let victim idx =
    match O.alive_ids ov with
    | [] -> None
    | ids -> Some (List.nth ids (idx mod List.length ids))
  in
  (* One integer-valued reading per live process, from a sub-seed:
     sums are then exact under any merge order, so tree-vs-oracle
     equality is a protocol property, not a rounding accident. Each
     process reads at its own filter's center — the sensor model E24
     and the CLI use — which is also what makes sharded exactness
     well-posed: a reading inside a query rectangle then implies the
     producer homes on a covered shard (the center lies in its home
     cell), so the subscription fan-out misses no producer. *)
  let agg_inject_readings rt sub_seed =
    let arng = Rng.make sub_seed in
    List.iter
      (fun id ->
        match O.state ov id with
        | Some s ->
            Agg.Runtime.inject rt ~from:id
              (Geometry.Rect.center (Drtree.State.filter s))
              (float_of_int (Rng.int arng 100))
        | None -> ())
      (O.alive_ids ov)
  in
  let value_str = function
    | None -> "none"
    | Some v -> Printf.sprintf "%.17g" v
  in
  let check_agg at rt qid =
    let e = Agg.Runtime.epoch rt in
    match Agg.Runtime.oracle rt ~epoch:e qid with
    | None -> ()
    | Some expect -> (
        match Agg.Runtime.result rt qid with
        | Some (re, v) when re = e ->
            if v <> expect then
              fail at "agg oracle: q%d = %s, want %s" qid (value_str v)
                (value_str expect)
        | Some (re, _) ->
            fail at "agg oracle: q%d result stale (epoch %d, want %d)" qid re e
        | None -> fail at "agg oracle: q%d no result at epoch %d" qid e)
  in
  let stabilize_rounds k =
    for _ = 1 to k do
      if !failure = None then
        match tr.Trace.mode with
        | Trace.Shared -> O.stabilize_round ov
        | Trace.Message_passing -> O.stabilize_round_mp ov
    done
  in
  List.iteri
    (fun i r ->
      if !failure = None then begin
        let at = `Prelude i in
        guard at (fun () -> ignore (O.join ov r));
        check_legal at
      end)
    tr.Trace.prelude;
  List.iteri
    (fun i op ->
      if !failure = None then begin
        let at = `Op i in
        guard at (fun () ->
            match op with
            | Trace.Join r ->
                ignore (O.join ov r);
                (* Lemma 3.2: a join from a legal state lands legal. *)
                check_legal at
            | Trace.Leave idx ->
                if O.size ov > 2 then begin
                  (match victim idx with
                  | Some v -> O.leave ov v
                  | None -> ());
                  (* Plain leave is the paper's lazy variant: orphaned
                     subtrees (and a root left with one child) wait for
                     stabilization. *)
                  dirty := true
                end
            | Trace.Crash idx ->
                if O.size ov > 2 then begin
                  (match victim idx with
                  | Some v ->
                      if fd = None then O.crash ov v
                      else begin
                        O.crash_silent ov v;
                        victims := v :: !victims
                      end
                  | None -> ());
                  dirty := true
                end
            | Trace.Corrupt (idx, sub_seed) -> (
                match victim idx with
                | Some v ->
                    ignore (Drtree.Corrupt.any ov (Rng.make sub_seed) v);
                    dirty := true
                | None -> ())
            | Trace.Publish p -> (
                match O.alive_ids ov with
                | [] -> ()
                | from :: _ ->
                    let report = O.publish ov ~from p in
                    if (not faulty) && (not !dirty) && Inv.is_legal ov then
                      match Oracle.check_report ov p report with
                      | Ok () -> ()
                      | Error e -> fail at "differential oracle: %s" e)
            | Trace.Stabilize k ->
                stabilize_rounds (max 1 k);
                if Inv.is_legal ov then dirty := false
            | Trace.Agg_query (fn, r) -> (
                match O.alive_ids ov with
                | [] -> ()
                | owner :: _ ->
                    let rt = Lazy.force agg in
                    let qid = Agg.Runtime.register rt ~owner ~rect:r fn in
                    agg_inject_readings rt
                      (tr.Trace.seed lxor (0xa66 * (i + 1)));
                    Agg.Runtime.run_epoch rt;
                    (* Exactness (tct = 0) is a legal-state, reliable-
                       FIFO property, like the publish oracle. *)
                    if strict && (not !dirty) && Inv.is_legal ov then
                      check_agg at rt qid))
      end)
    tr.Trace.ops;
  (* Convergence within the round budget, then the structural bounds and
     dissemination probes — all under reliable delivery. *)
  if !failure = None then begin
    let n = O.size ov in
    if faulty then Schedule.uninstall eng;
    guard `Final (fun () ->
        (* Crash convergence (DESIGN.md §13): with reliable delivery
           restored, every silently crashed process must be confirmed
           dead — each stabilization round emits at most one heartbeat
           wave, so [timeout_factor + 1] waves convict; the budget
           leaves generous slack. Ring monitors are what survive the
           structural heal (the registry drops a member only on
           conviction), so conviction is guaranteed only with
           [fallbacks > 0]. *)
        (match (fd, cfg.Drtree.Config.detector) with
        | ( Some rt,
            Drtree.Config.Heartbeat { timeout_factor; fallbacks; _ } )
          when !victims <> [] && fallbacks > 0 ->
            let unconfirmed () =
              List.filter
                (fun v -> not (Fd.Runtime.is_confirmed rt v))
                !victims
            in
            let budget = round_bound n + (4 * (timeout_factor + 2)) in
            let r = ref 0 in
            while unconfirmed () <> [] && !r < budget do
              incr r;
              stabilize_rounds 1
            done;
            let missing = unconfirmed () in
            if missing <> [] then
              fail `Final
                "detector: %d crashed process(es) never confirmed within %d \
                 rounds"
                (List.length missing) budget
        | _ -> ());
        let budget = round_bound n in
        let converged =
          match tr.Trace.mode with
          | Trace.Shared -> O.stabilize ~max_rounds:budget ~legal:Inv.is_legal ov
          | Trace.Message_passing ->
              O.stabilize_mp ~max_rounds:budget ~legal:Inv.is_legal ov
        in
        match converged with
        | None ->
            (* The last round's telemetry tells a diverging repair loop
               (repairs still firing every round) apart from a checker
               blind spot (zero repairs, yet still illegal). *)
            let tele =
              match Drtree.Telemetry.last_round (O.telemetry ov) with
              | Some r ->
                  Format.asprintf " [last %a]" Drtree.Telemetry.pp_round r
              | None -> ""
            in
            fail `Final "no convergence within %d rounds%s%s" budget
              (match describe_violations ov with
              | Some d -> ": " ^ d
              | None -> "")
              tele
        | Some _ ->
            let deg = Inv.max_degree ov in
            if deg > cfg.max_fill then
              fail `Final "degree bound violated: %d > M=%d" deg cfg.max_fill;
            let h = O.height ov
            and hb = height_bound ~min_fill:cfg.min_fill n in
            if h > hb then
              fail `Final "height bound violated: %d > %d for N=%d, m=%d" h hb
                n cfg.min_fill;
            Schedule.uninstall eng;
            if n > 0 then begin
              let prng = Rng.make (tr.Trace.seed lxor 0xfeed) in
              for _ = 1 to probes do
                if !failure = None then begin
                  let p = P.make2 (Rng.range prng 0.0 100.0)
                      (Rng.range prng 0.0 100.0)
                  in
                  let from = List.hd (O.alive_ids ov) in
                  match Oracle.check_publish ov ~from p with
                  | Ok () -> ()
                  | Error e -> fail `Final "differential oracle: %s" e
                end
              done
            end;
            (* Every standing query must be exact again once the state
               is legal and delivery reliable: one repair pass (query
               anti-entropy + cache reconciliation), a fresh epoch of
               readings, then tree vs brute force. *)
            if Lazy.is_val agg && n > 0 && !failure = None then begin
              let rt = Lazy.force agg in
              Agg.Runtime.repair rt;
              agg_inject_readings rt (tr.Trace.seed lxor 0xa99);
              Agg.Runtime.run_epoch rt;
              List.iter
                (fun q ->
                  if
                    !failure = None
                    && O.is_alive ov q.Agg.Query.q_owner
                  then check_agg `Final rt q.Agg.Query.query_id)
                (Agg.Runtime.queries rt)
            end)
  end;
  Schedule.uninstall eng;
  (* At drop 0 no live process is ever convicted: a challenged suspect
     answers within the same round's drain, so any false kill on a
     clean trace — hostile reorderings included — is a detector bug. *)
  (match fd with
  | Some _ when not faulty ->
      let fk = Drtree.Telemetry.fd_false_kills (O.telemetry ov) in
      if fk > 0 then
        fail `Final "detector: %d false kill(s) under reliable delivery" fk
  | _ -> ());
  (* The wire codec is total: any frame the decoder rejected is a codec
     bug, and a counterexample regardless of what else happened. *)
  let errs = Sim.Engine.decode_errors eng in
  if errs > 0 then
    fail `Final "%d wire decode error(s); last: %s" errs
      (Option.value ~default:"?" (Sim.Engine.last_decode_error eng));
  let outcome = match !failure with None -> Passed | Some f -> Failed f in
  let tele = O.telemetry ov in
  let fp =
    {
      fp_probes = Drtree.Telemetry.probes tele;
      fp_execs = Drtree.Telemetry.execs tele;
      fp_repairs = Drtree.Telemetry.total_repairs tele;
      fp_rounds = List.length (Drtree.Telemetry.rounds tele);
      fp_msgs_sent = Sim.Engine.messages_sent eng;
      fp_selfs = Sim.Engine.self_messages eng;
      fp_lost = Sim.Engine.messages_lost eng;
      fp_duplicated = Sim.Engine.messages_duplicated eng;
      fp_events = Sim.Engine.events_processed eng;
      fp_bytes_sent = Sim.Engine.bytes_sent eng;
      fp_bytes_received = Sim.Engine.bytes_received eng;
      fp_bytes_lost = Sim.Engine.bytes_lost eng;
      fp_traffic =
        List.map
          (fun (k, (tf : Drtree.Telemetry.traffic)) ->
            (k, tf.sent_msgs, tf.sent_bytes, tf.recv_msgs, tf.recv_bytes))
          (Drtree.Telemetry.traffic_entries tele);
    }
  in
  ( outcome,
    {
      final_size = O.size ov;
      final_height = O.height ov;
      final_legal = Inv.is_legal ov;
    },
    fp )

let run_trace ?probes tr =
  let outcome, _, _ = run_trace_full ?probes tr in
  outcome

(* {2 Differential axes}

   One harness runs a trace under every variant of an axis and
   compares each run with the first variant's, the reference: verdict,
   final shape and fingerprint must be identical (see fuzz.mli). *)

type axis = { name : string; variants : (string * (Trace.t -> Trace.t)) list }

(* An axis over the knob-table row [name]: each variant is one of the
   row's value strings, set on the trace's config. *)
let axis name values =
  let row = List.find (fun f -> f.Drtree.Config.name = name) Drtree.Config.fields in
  let variant v =
    match row.parse v with
    | Ok set -> (v, fun tr -> { tr with Trace.config = set tr.Trace.config })
    | Error e -> invalid_arg ("Fuzz.axis: " ^ e)
  in
  { name; variants = List.map variant values }

let axes =
  [
    axis "layout" [ "hashed"; "flat" ];
    (* A one-shard forest runs the whole rendezvous machinery (grid,
       per-shard claimant caches, shard-scoped guards, cross-shard
       fan-out loops) yet must reduce to the single tree exactly
       (DESIGN.md §14). *)
    axis "forest" [ "single"; "sharded:1" ];
  ]

let pp_verdict ppf = function
  | Passed -> Format.pp_print_string ppf "pass"
  | Failed f -> Format.fprintf ppf "fail at %a" pp_failure f

let differential ?probes axis (tr : Trace.t) =
  match axis.variants with
  | [] -> invalid_arg "Fuzz.differential: an axis needs at least one variant"
  | (ref_name, ref_variant) :: others ->
      let o0, s0, f0 = run_trace_full ?probes (ref_variant tr) in
      let check (name, variant) =
        let o, s, f = run_trace_full ?probes (variant tr) in
        let differ what pp a b =
          Error
            (Format.asprintf "%s %s differ:@ %s=%a@ %s=%a" axis.name what
               ref_name pp a name pp b)
        in
        if o0 <> o then differ "verdicts" pp_verdict o0 o
        else if s0 <> s then differ "shapes" pp_summary s0 s
        else if f0 <> f then differ "fingerprints" pp_fingerprint f0 f
        else Ok ()
      in
      List.fold_left
        (fun acc v -> Result.bind acc (fun () -> check v))
        (Ok ()) others

(* {2 Random traces} *)

let random_rect rng =
  let x0 = Rng.range rng 0.0 90.0 and y0 = Rng.range rng 0.0 90.0 in
  let w = Rng.range rng 1.0 10.0 and h = Rng.range rng 1.0 10.0 in
  R.make2 ~x0 ~y0 ~x1:(x0 +. w) ~y1:(y0 +. h)

let random_op rng =
  match Rng.int rng 12 with
  | 0 | 1 | 2 -> Trace.Join (random_rect rng)
  | 3 -> Trace.Leave (Rng.int rng 64)
  | 4 -> Trace.Crash (Rng.int rng 64)
  | 5 | 6 -> Trace.Corrupt (Rng.int rng 64, Rng.int rng 1_000_000)
  | 7 | 8 ->
      Trace.Publish
        (P.make2 (Rng.range rng 0.0 100.0) (Rng.range rng 0.0 100.0))
  | 9 ->
      Trace.Agg_query
        (Rng.pick rng Agg.Aggregate.all_fns, random_rect rng)
  | _ -> Trace.Stabilize (1 + Rng.int rng 3)

let random_trace rng ?(nodes = 8) ?(ops = 10) ?(mode = Trace.Shared)
    ?(transport = Trace.Inproc) ?(sched = Schedule.Random) ?(drop = 0.0)
    ?(dup = 0.0) ?(config = Drtree.Config.default) () =
  let seed = 1 + Rng.int rng 1_000_000 in
  let n_pre = 3 + Rng.int rng (max 1 (nodes - 2)) in
  {
    Trace.seed;
    mode;
    transport;
    sched;
    drop;
    dup;
    config;
    prelude = List.init n_pre (fun _ -> random_rect rng);
    ops = List.init ops (fun _ -> random_op rng);
  }

let fuzz ?probes ~traces ~gen () =
  let rec go i =
    if i >= traces then None
    else
      let tr = gen i in
      match run_trace ?probes tr with
      | Passed -> go (i + 1)
      | Failed f -> Some (i, tr, f)
  in
  go 0
