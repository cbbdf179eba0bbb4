type latency = Fixed of float | Uniform of float * float
type loss_model = Per_message | Per_byte

(* [src] is [env] (-1) for an environment injection: ids are dense
   from 0, so the sentinel saves an option per send. *)
type 'm delivery = {
  src : Node_id.t;
  dst : Node_id.t;
  msg : 'm;
  frame : string option;
      (* Wire transport: the encoded bytes the link actually carries;
         the receiver decodes these, never reuses [msg] *)
  bytes : int; (* String.length of [frame]; 0 inproc and for selfs *)
}

type 'm pending_event = {
  p_time : float;
  p_src : Node_id.t option;
  p_dst : Node_id.t;
  p_msg : 'm;
  p_bytes : int;
}

type choice = Deliver of int | Drop of int | Duplicate of int

type 'm t = {
  rng : Rng.t;
  latency : latency;
  transport : 'm Transport.t;
  mutable drop_rate : float;
  mutable loss_model : loss_model;
  queue : 'm delivery Heap.t;
  mutable handlers : ('m ctx -> 'm -> unit) option array;
      (* indexed by id ([spawn] hands ids out densely); [None] once
         killed, and ids at or past the length were never spawned *)
  mutable next_id : int;
  mutable time : float;
  mutable seq : int;
  mutable alive : int;
  mutable sent : int;
  mutable selfs : int;
  mutable dropped : int;
  mutable lost : int;
  mutable duplicated : int;
  mutable processed : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable bytes_lost : int;
  mutable decode_errors : int;
  mutable last_decode_error : string option;
  mutable scheduler : ('m pending_event array -> choice) option;
  mutable meter : ([ `Sent | `Received ] -> 'm -> int -> unit) option;
  mutable tracer :
    (float -> src:Node_id.t option -> dst:Node_id.t -> 'm -> unit) option;
}

and 'm ctx = { eng : 'm t; id : Node_id.t }

let validate_drop_rate ~who drop_rate =
  if drop_rate < 0.0 || drop_rate >= 1.0 then
    invalid_arg (who ^ ": drop_rate outside [0, 1)")

let create ?(latency = Fixed 1.0) ?(transport = Transport.Inproc)
    ?(drop_rate = 0.0) ~seed () =
  (match latency with
  | Fixed l when l < 0.0 -> invalid_arg "Engine.create: negative latency"
  | Uniform (lo, hi) when lo < 0.0 || hi < lo ->
      invalid_arg "Engine.create: bad latency range"
  | Fixed _ | Uniform _ -> ());
  validate_drop_rate ~who:"Engine.create" drop_rate;
  {
    rng = Rng.make seed;
    latency;
    transport;
    drop_rate;
    loss_model = Per_message;
    queue = Heap.create ();
    handlers = [||];
    next_id = 0;
    time = 0.0;
    seq = 0;
    alive = 0;
    sent = 0;
    selfs = 0;
    dropped = 0;
    lost = 0;
    duplicated = 0;
    processed = 0;
    bytes_sent = 0;
    bytes_received = 0;
    bytes_lost = 0;
    decode_errors = 0;
    last_decode_error = None;
    scheduler = None;
    meter = None;
    tracer = None;
  }

let rng t = t.rng
let now t = t.time
let transport t = t.transport

let spawn t handler =
  let id = t.next_id in
  t.next_id <- id + 1;
  let cap = Array.length t.handlers in
  if id >= cap then begin
    let handlers = Array.make (max 16 (2 * cap)) None in
    Array.blit t.handlers 0 handlers 0 cap;
    t.handlers <- handlers
  end;
  t.handlers.(id) <- Some handler;
  t.alive <- t.alive + 1;
  id

(* Bounds-checked, so a message to a negative or never-spawned id
   finds no handler and counts as dropped. *)
let handler_of t id =
  if id >= 0 && id < Array.length t.handlers then t.handlers.(id) else None

let is_alive t id = Option.is_some (handler_of t id)

let kill t id =
  if is_alive t id then begin
    t.handlers.(id) <- None;
    t.alive <- t.alive - 1
  end

let alive_nodes t =
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    if is_alive t id then acc := id :: !acc
  done;
  !acc

let alive_count t = t.alive
let spawned_count t = t.next_id

let sample_latency t =
  match t.latency with
  | Fixed l -> l
  | Uniform (lo, hi) -> Rng.range t.rng lo hi

(* Per-byte loss: each byte of the frame is lost independently with
   probability [drop_rate], so a frame of [n] bytes survives with
   probability (1 - p)^n — one RNG draw either way, so switching the
   model never perturbs the deterministic schedule. Sizeless messages
   (inproc, selfs — though selfs are never dropped) fall back to the
   per-message rate. *)
let effective_drop t bytes =
  match t.loss_model with
  | Per_message -> t.drop_rate
  | Per_byte ->
      if bytes <= 0 then t.drop_rate
      else 1.0 -. ((1.0 -. t.drop_rate) ** float_of_int bytes)

let env = -1
let src_option src = if src = env then None else Some src
let is_self src dst = src <> env && Node_id.equal src dst

(* A [timer] injection arrives after exactly [delay] and spends no
   latency draw; every other message samples the link latency, after
   its loss draw. *)
let enqueue t ~src ~dst ~timer ~delay msg =
  let is_self = is_self src dst in
  if is_self then t.selfs <- t.selfs + 1 else t.sent <- t.sent + 1;
  (* Self-messages model local computation: they bypass the transport
     (no frame, no bytes) and are never lost. *)
  let frame =
    if is_self then None
    else
      match t.transport with
      | Transport.Inproc -> None
      | Transport.Wire codec -> Some (codec.Transport.encode msg)
  in
  let bytes = match frame with Some f -> String.length f | None -> 0 in
  if not is_self then begin
    t.bytes_sent <- t.bytes_sent + bytes;
    match t.meter with Some f -> f `Sent msg bytes | None -> ()
  end;
  if
    (not is_self) && t.drop_rate > 0.0
    && Rng.float t.rng 1.0 < effective_drop t bytes
  then begin
    t.lost <- t.lost + 1;
    t.bytes_lost <- t.bytes_lost + bytes
  end
  else begin
    let delay = if timer then delay else sample_latency t in
    t.seq <- t.seq + 1;
    Heap.add t.queue ~priority:(t.time +. delay) ~seq:t.seq
      { src; dst; msg; frame; bytes }
  end

let inject t ~dst msg = enqueue t ~src:env ~dst ~timer:false ~delay:0.0 msg

let inject_delayed t ~delay ~dst msg =
  if delay < 0.0 then invalid_arg "Engine.inject_delayed: negative delay";
  enqueue t ~src:env ~dst ~timer:true ~delay msg

let self ctx = ctx.id
let engine ctx = ctx.eng

let send ctx dst msg =
  enqueue ctx.eng ~src:ctx.id ~dst ~timer:false ~delay:0.0 msg

let deliver t { src; dst; msg; frame; bytes } =
  match handler_of t dst with
  | Some handler -> (
      (* The wire boundary: what the handler sees is what the decoder
         produced from the frame, never the sender's value. *)
      let received =
        match frame with
        | None -> Some msg
        | Some f -> (
            match t.transport with
            | Transport.Wire codec -> (
                match codec.Transport.decode f with
                | Ok m -> Some m
                | Error e ->
                    t.decode_errors <- t.decode_errors + 1;
                    t.last_decode_error <- Some e;
                    None)
            | Transport.Inproc -> Some msg)
      in
      match received with
      | None -> () (* an undecodable frame is silently discarded *)
      | Some m ->
          if not (is_self src dst) then begin
            t.bytes_received <- t.bytes_received + bytes;
            match t.meter with Some f -> f `Received m bytes | None -> ()
          end;
          (match t.tracer with
          | Some trace -> trace t.time ~src:(src_option src) ~dst m
          | None -> ());
          handler { eng = t; id = dst } m)
  | None -> t.dropped <- t.dropped + 1

(* Adversarial stepping: materialize the whole enabled set in (time,
   sequence) order, let the scheduler pick a victim, then rebuild the
   queue with the untouched entries under their original keys — so
   uninstalling the scheduler resumes exact timestamp order. *)
let step_scheduled t sched =
  match Heap.pop t.queue with
  | None -> false
  | Some first ->
      let rec drain acc =
        match Heap.pop t.queue with
        | None -> List.rev acc
        | Some e -> drain (e :: acc)
      in
      let entries = Array.of_list (first :: drain []) in
      let view =
        Array.map
          (fun (prio, _, d) ->
            { p_time = prio; p_src = src_option d.src; p_dst = d.dst;
              p_msg = d.msg; p_bytes = d.bytes })
          entries
      in
      let valid i = if i >= 0 && i < Array.length entries then i else 0 in
      let chosen, fate =
        match sched view with
        | Deliver i -> (valid i, `Deliver)
        | Drop i -> (valid i, `Drop)
        | Duplicate i -> (valid i, `Duplicate)
      in
      Array.iteri
        (fun i (prio, seq, d) ->
          if i <> chosen then Heap.add t.queue ~priority:prio ~seq d)
        entries;
      let prio, _, d = entries.(chosen) in
      t.processed <- t.processed + 1;
      (match fate with
      | `Drop ->
          t.lost <- t.lost + 1;
          t.bytes_lost <- t.bytes_lost + d.bytes
      | `Deliver | `Duplicate ->
          (if fate = `Duplicate then begin
             t.duplicated <- t.duplicated + 1;
             t.seq <- t.seq + 1;
             Heap.add t.queue ~priority:prio ~seq:t.seq d
           end);
          t.time <- Float.max t.time prio;
          deliver t d);
      true

let step t =
  match t.scheduler with
  | Some sched -> step_scheduled t sched
  | None -> (
      match Heap.pop t.queue with
      | None -> false
      | Some (time, _, delivery) ->
          t.time <- Float.max t.time time;
          t.processed <- t.processed + 1;
          deliver t delivery;
          true)

(* The delivery hot loop. The common (no adversarial scheduler) path
   drains the heap with [min_prio]/[pop_exn] instead of [Heap.pop], so
   a run allocates nothing per event beyond what the handlers and the
   transport do — the allocation-regression test in test_sim.ml holds
   it to that. The scheduler is re-read every iteration because a
   handler may install or remove one mid-run. *)
let run ?(max_events = 10_000_000) t =
  let budget = ref max_events in
  let quiescent = ref false in
  while (not !quiescent) && !budget > 0 do
    match t.scheduler with
    | Some sched ->
        if step_scheduled t sched then decr budget else quiescent := true
    | None ->
        if Heap.is_empty t.queue then quiescent := true
        else begin
          t.time <- Float.max t.time (Heap.min_prio t.queue);
          t.processed <- t.processed + 1;
          deliver t (Heap.pop_exn t.queue);
          decr budget
        end
  done;
  if !quiescent then `Quiescent else `Limit

let pending t = Heap.length t.queue
let messages_sent t = t.sent
let self_messages t = t.selfs
let messages_dropped t = t.dropped
let messages_lost t = t.lost
let bytes_sent t = t.bytes_sent
let bytes_received t = t.bytes_received
let bytes_lost t = t.bytes_lost
let decode_errors t = t.decode_errors
let last_decode_error t = t.last_decode_error

let set_drop_rate t r =
  validate_drop_rate ~who:"Engine.set_drop_rate" r;
  t.drop_rate <- r

let set_loss_model t m = t.loss_model <- m
let loss_model t = t.loss_model
let messages_duplicated t = t.duplicated
let events_processed t = t.processed

let reset_counters t =
  t.sent <- 0;
  t.selfs <- 0;
  t.dropped <- 0;
  t.lost <- 0;
  t.duplicated <- 0;
  t.processed <- 0;
  t.bytes_sent <- 0;
  t.bytes_received <- 0;
  t.bytes_lost <- 0;
  t.decode_errors <- 0;
  t.last_decode_error <- None

let set_tracer t tracer = t.tracer <- Some tracer
let set_meter t meter = t.meter <- meter
let set_scheduler t sched = t.scheduler <- sched
