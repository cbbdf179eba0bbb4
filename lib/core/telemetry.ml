module Node_id = Sim.Node_id

type repair = Mbr | Children | Parent | Cover | Structure | Root

let repair_kinds = [ Mbr; Children; Parent; Cover; Structure; Root ]

let repair_index = function
  | Mbr -> 0
  | Children -> 1
  | Parent -> 2
  | Cover -> 3
  | Structure -> 4
  | Root -> 5

let repair_label = function
  | Mbr -> "mbr"
  | Children -> "children"
  | Parent -> "parent"
  | Cover -> "cover"
  | Structure -> "structure"
  | Root -> "root"

let n_repair_kinds = List.length repair_kinds

type round_report = {
  round : int;
  probes : int;
  messages : int;
  bytes : int;
  repairs : int array;
  queue_depth : int;
  execs : int;
  skipped : int;
}

type traffic = {
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable recv_msgs : int;
  mutable recv_bytes : int;
}

type agg_epoch_report = {
  epoch : int;
  partials_sent : int;
  suppressed : int;
  stale_dropped : int;
}

type fp_counter = {
  mutable self_fp : int;
  would : (Node_id.t, int) Hashtbl.t;
}

type event_record = {
  matched : Node_id.Set.t;
  origin : Node_id.t;
  mutable received : Node_id.Set.t;
  mutable delivered : Node_id.Set.t;
  mutable max_hops : int;
}

type t = {
  mutable probes : int;
  repairs : int array;
  mutable execs : int;
      (* CHECK_* module invocations actually executed by the round
         drivers — under the incremental scheduler the gap to the
         full-sweep-equivalent count is the per-round [skipped] gauge *)
  mutable rounds : round_report list; (* newest first *)
  mutable round_count : int;
  mutable round_mark : (int * int * int * int array * int * int) option;
  traffic : int array;
      (* wire traffic, fed by the engine's meter hook: four counters
         per message kind, at [4 * Message.kind_code] *)
  fp : (Node_id.t * int, fp_counter) Hashtbl.t;
  events : (int, event_record) Hashtbl.t;
  mutable next_event : int;
  mutable agg_sent : int;
  mutable agg_suppressed : int;
  mutable agg_stale : int;
  mutable agg_merges : int;
      (* cross-shard Agg_merge partials sent (DESIGN.md §15); 0 under
         a single tree *)
  mutable agg_epochs : agg_epoch_report list; (* newest first *)
  mutable agg_mark : (int * (int * int * int)) option;
  mutable fd_suspicions : int;
  mutable fd_false_suspicions : int;
      (* suspicions raised against a process that was in fact alive *)
  mutable fd_confirms : int;
  mutable fd_false_kills : int;
      (* confirmed-dead verdicts whose target was in fact alive *)
  mutable fd_latency_sum : float;
  mutable fd_latency_max : float;
  mutable fd_latency_count : int;
      (* detection latency: simulated time from a true crash to its
         confirmed-dead verdict, over true confirms only *)
}

let create () =
  {
    probes = 0;
    repairs = Array.make n_repair_kinds 0;
    execs = 0;
    rounds = [];
    round_count = 0;
    round_mark = None;
    traffic = Array.make (4 * Message.kind_count) 0;
    fp = Hashtbl.create 64;
    events = Hashtbl.create 64;
    next_event = 0;
    agg_sent = 0;
    agg_suppressed = 0;
    agg_stale = 0;
    agg_merges = 0;
    agg_epochs = [];
    agg_mark = None;
    fd_suspicions = 0;
    fd_false_suspicions = 0;
    fd_confirms = 0;
    fd_false_kills = 0;
    fd_latency_sum = 0.0;
    fd_latency_max = 0.0;
    fd_latency_count = 0;
  }

(* {2 State probes} *)

let record_probe t = t.probes <- t.probes + 1
let probes t = t.probes
let reset_probes t = t.probes <- 0

(* {2 Repair actions} *)

let record_repair t kind =
  let i = repair_index kind in
  t.repairs.(i) <- t.repairs.(i) + 1

let repair_count t kind = t.repairs.(repair_index kind)
let total_repairs t = Array.fold_left ( + ) 0 t.repairs

(* {2 Repair-module executions} *)

let record_exec t = t.execs <- t.execs + 1
let execs t = t.execs

(* {2 Per-kind wire traffic} *)

(* Kind [code]'s counters sit at [4 * code]: sent messages, sent
   bytes, received messages, received bytes. *)
let record_traffic t dir ~code ~bytes =
  let i = match dir with `Sent -> 4 * code | `Received -> (4 * code) + 2 in
  t.traffic.(i) <- t.traffic.(i) + 1;
  t.traffic.(i + 1) <- t.traffic.(i + 1) + bytes

let traffic_at t code =
  let i = 4 * code in
  { sent_msgs = t.traffic.(i); sent_bytes = t.traffic.(i + 1);
    recv_msgs = t.traffic.(i + 2); recv_bytes = t.traffic.(i + 3) }

let traffic_of t kind =
  let rec find code =
    if code >= Message.kind_count then
      { sent_msgs = 0; sent_bytes = 0; recv_msgs = 0; recv_bytes = 0 }
    else if String.equal (Message.kind_name code) kind then traffic_at t code
    else find (code + 1)
  in
  find 0

(* The kinds that carried a message, in deterministic (kind-sorted)
   order, like fp_entries. *)
let traffic_entries t =
  List.init Message.kind_count (fun code ->
      (Message.kind_name code, traffic_at t code))
  |> List.filter (fun (_, c) -> c.sent_msgs + c.recv_msgs > 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_traffic t = Array.fill t.traffic 0 (Array.length t.traffic) 0

(* {2 Round reports} *)

let begin_round t ~messages ~bytes ~queue_depth =
  t.round_mark <-
    Some (t.probes, messages, bytes, Array.copy t.repairs, t.execs, queue_depth)

let end_round t ~messages ~bytes ~skipped =
  match t.round_mark with
  | None -> ()
  | Some (p0, m0, b0, r0, e0, queue_depth) ->
      let repairs = Array.mapi (fun i r -> r - r0.(i)) t.repairs in
      let report =
        { round = t.round_count; probes = t.probes - p0;
          messages = messages - m0; bytes = bytes - b0; repairs;
          queue_depth; execs = t.execs - e0; skipped }
      in
      t.rounds <- report :: t.rounds;
      t.round_count <- t.round_count + 1;
      t.round_mark <- None

let rounds t = List.rev t.rounds
let last_round t = match t.rounds with [] -> None | r :: _ -> Some r

let reset_rounds t =
  t.rounds <- [];
  t.round_count <- 0;
  t.round_mark <- None

let round_repairs (r : round_report) kind = r.repairs.(repair_index kind)
let round_total_repairs (r : round_report) = Array.fold_left ( + ) 0 r.repairs

(* {2 Aggregation epoch counters} *)

let record_agg_sent t = t.agg_sent <- t.agg_sent + 1
let record_agg_suppressed t = t.agg_suppressed <- t.agg_suppressed + 1
let record_agg_stale t = t.agg_stale <- t.agg_stale + 1
let record_agg_merge t = t.agg_merges <- t.agg_merges + 1
let agg_merges t = t.agg_merges
let agg_sent t = t.agg_sent
let agg_suppressed t = t.agg_suppressed
let agg_stale_dropped t = t.agg_stale

let begin_agg_epoch t ~epoch =
  t.agg_mark <- Some (epoch, (t.agg_sent, t.agg_suppressed, t.agg_stale))

let end_agg_epoch t =
  match t.agg_mark with
  | None -> ()
  | Some (epoch, (s0, u0, d0)) ->
      let report =
        { epoch; partials_sent = t.agg_sent - s0;
          suppressed = t.agg_suppressed - u0;
          stale_dropped = t.agg_stale - d0 }
      in
      t.agg_epochs <- report :: t.agg_epochs;
      t.agg_mark <- None

let agg_epochs t = List.rev t.agg_epochs

let last_agg_epoch t =
  match t.agg_epochs with [] -> None | r :: _ -> Some r

let reset_agg t =
  t.agg_sent <- 0;
  t.agg_suppressed <- 0;
  t.agg_stale <- 0;
  t.agg_merges <- 0;
  t.agg_epochs <- [];
  t.agg_mark <- None

(* {2 Failure-detection counters (lib/fd)} *)

let record_fd_suspicion t ~false_positive =
  t.fd_suspicions <- t.fd_suspicions + 1;
  if false_positive then
    t.fd_false_suspicions <- t.fd_false_suspicions + 1

let record_fd_confirm t ~false_kill ~latency =
  t.fd_confirms <- t.fd_confirms + 1;
  if false_kill then t.fd_false_kills <- t.fd_false_kills + 1
  else begin
    t.fd_latency_sum <- t.fd_latency_sum +. latency;
    t.fd_latency_max <- Float.max t.fd_latency_max latency;
    t.fd_latency_count <- t.fd_latency_count + 1
  end

let fd_suspicions t = t.fd_suspicions
let fd_false_suspicions t = t.fd_false_suspicions
let fd_confirms t = t.fd_confirms
let fd_false_kills t = t.fd_false_kills

let fd_mean_detection_latency t =
  if t.fd_latency_count = 0 then None
  else Some (t.fd_latency_sum /. float_of_int t.fd_latency_count)

let fd_max_detection_latency t =
  if t.fd_latency_count = 0 then None else Some t.fd_latency_max

let reset_fd t =
  t.fd_suspicions <- 0;
  t.fd_false_suspicions <- 0;
  t.fd_confirms <- 0;
  t.fd_false_kills <- 0;
  t.fd_latency_sum <- 0.0;
  t.fd_latency_max <- 0.0;
  t.fd_latency_count <- 0

(* {2 False-positive interest counters (§3.2 dynamic reorganization)} *)

let fp_counter t p h =
  match Hashtbl.find_opt t.fp (p, h) with
  | Some c -> c
  | None ->
      let c = { self_fp = 0; would = Hashtbl.create 8 } in
      Hashtbl.replace t.fp (p, h) c;
      c

let clear_fp t p h = Hashtbl.remove t.fp (p, h)

(* Deterministic iteration order: the engine replays runs from seeds,
   so every consumer of the counters must see them in a stable order. *)
let fp_entries t =
  let entries = Hashtbl.fold (fun key c acc -> (key, c) :: acc) t.fp [] in
  List.sort (fun ((a, ha), _) ((b, hb), _) -> compare (a, ha) (b, hb)) entries

let reset_fp t = Hashtbl.reset t.fp

(* {2 Event delivery records} *)

let fresh_event_id t =
  let id = t.next_event in
  t.next_event <- id + 1;
  id

let register_event t ~event_id ~matched ~origin =
  let rec_ =
    { matched; origin; received = Node_id.Set.empty;
      delivered = Node_id.Set.empty; max_hops = 0 }
  in
  Hashtbl.replace t.events event_id rec_;
  rec_

let event t event_id = Hashtbl.find_opt t.events event_id
let forget_event t event_id = Hashtbl.remove t.events event_id

(* {2 Pretty-printing} *)

let pp_round ppf (r : round_report) =
  let nonzero =
    List.filter_map
      (fun kind ->
        let n = r.repairs.(repair_index kind) in
        if n > 0 then Some (Printf.sprintf "%s:%d" (repair_label kind) n)
        else None)
      repair_kinds
  in
  Format.fprintf ppf "round %d: probes=%d messages=%d%s execs=%d%s repairs=[%s]"
    r.round r.probes r.messages
    (if r.bytes > 0 then Printf.sprintf " bytes=%d" r.bytes else "")
    r.execs
    (if r.skipped > 0 then
       Printf.sprintf " skipped=%d queue=%d" r.skipped r.queue_depth
     else "")
    (String.concat " " nonzero)

let pp_agg_epoch ppf (r : agg_epoch_report) =
  Format.fprintf ppf "epoch %d: sent=%d suppressed=%d stale=%d" r.epoch
    r.partials_sent r.suppressed r.stale_dropped

let pp ppf t =
  Format.fprintf ppf "probes=%d repairs=%d rounds=%d" t.probes
    (total_repairs t) t.round_count
