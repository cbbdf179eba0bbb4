(* Tests for the discrete-event simulation substrate. *)

module Rng = Sim.Rng
module Heap = Sim.Heap
module Engine = Sim.Engine
module Churn = Sim.Churn

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- Rng -------------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.make 42 and b = Rng.make 42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  check_bool "same seed same stream" true (xs = ys);
  let c = Rng.make 43 in
  let zs = List.init 20 (fun _ -> Rng.int c 1000) in
  check_bool "different seed different stream" true (xs <> zs)

let test_rng_ranges () =
  let rng = Rng.make 1 in
  for _ = 1 to 200 do
    let x = Rng.int rng 10 in
    check_bool "int in range" true (x >= 0 && x < 10);
    let f = Rng.range rng 2.0 3.0 in
    check_bool "float in range" true (f >= 2.0 && f < 3.0)
  done;
  Alcotest.check_raises "nonpositive" (Invalid_argument "Rng.int: non-positive bound")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_pick_shuffle () =
  let rng = Rng.make 5 in
  let xs = [ 1; 2; 3; 4; 5 ] in
  for _ = 1 to 50 do
    check_bool "pick member" true (List.mem (Rng.pick rng xs) xs)
  done;
  let shuffled = Rng.shuffle rng xs in
  check_bool "permutation" true (List.sort compare shuffled = xs);
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick rng []))

let test_rng_exponential () =
  let rng = Rng.make 9 in
  let n = 5000 in
  let xs = List.init n (fun _ -> Rng.exponential rng ~rate:2.0) in
  List.iter (fun x -> check_bool "positive" true (x > 0.0)) xs;
  let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
  check_bool "mean near 1/rate" true (Float.abs (mean -. 0.5) < 0.05)

let test_rng_poisson () =
  let rng = Rng.make 10 in
  let n = 5000 in
  let xs = List.init n (fun _ -> Rng.poisson rng ~mean:4.0) in
  let mean =
    List.fold_left (fun a x -> a +. float_of_int x) 0.0 xs /. float_of_int n
  in
  check_bool "poisson mean" true (Float.abs (mean -. 4.0) < 0.2)

let test_rng_zipf () =
  let rng = Rng.make 11 in
  let n = 10000 in
  let counts = Array.make 11 0 in
  for _ = 1 to n do
    let k = Rng.zipf rng ~n:10 ~s:1.2 in
    check_bool "in range" true (k >= 1 && k <= 10);
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank 1 most frequent" true (counts.(1) > counts.(2));
  check_bool "heavily skewed" true (counts.(1) > n / 4);
  (* s = 0 degenerates to uniform. *)
  let u = List.init 1000 (fun _ -> Rng.zipf rng ~n:10 ~s:0.0) in
  check_bool "s=0 covers ranks" true
    (List.exists (fun k -> k > 8) u && List.exists (fun k -> k < 3) u)

let test_rng_gaussian () =
  let rng = Rng.make 12 in
  let n = 5000 in
  let xs = List.init n (fun _ -> Rng.gaussian rng ~mean:10.0 ~stddev:2.0) in
  let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
  check_bool "gaussian mean" true (Float.abs (mean -. 10.0) < 0.15)

(* --- Heap ------------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  Heap.add h ~priority:3.0 ~seq:1 "c";
  Heap.add h ~priority:1.0 ~seq:2 "a";
  Heap.add h ~priority:2.0 ~seq:3 "b";
  check_int "length" 3 (Heap.length h);
  check_bool "peek min" true (Heap.peek h = Some (1.0, 2, "a"));
  let order = List.init 3 (fun _ ->
      match Heap.pop h with Some (_, _, v) -> v | None -> "?") in
  check_bool "sorted" true (order = [ "a"; "b"; "c" ]);
  check_bool "drained" true (Heap.pop h = None)

let test_heap_tiebreak () =
  let h = Heap.create () in
  Heap.add h ~priority:1.0 ~seq:2 "second";
  Heap.add h ~priority:1.0 ~seq:1 "first";
  check_bool "fifo on equal priority" true
    (match Heap.pop h with Some (_, _, v) -> v = "first" | None -> false)

let test_heap_stress () =
  let rng = Rng.make 3 in
  let h = Heap.create () in
  let n = 2000 in
  for i = 1 to n do
    Heap.add h ~priority:(Rng.float rng 100.0) ~seq:i i
  done;
  let rec drain last count =
    match Heap.pop h with
    | None -> count
    | Some (p, _, _) ->
        check_bool "non-decreasing" true (p >= last);
        drain p (count + 1)
  in
  check_int "all popped" n (drain neg_infinity 0)

(* A popped value must not stay reachable from the queue's arrays
   until its slot is reused: every vacated slot is refilled with the
   first value ever added, so at most that one popped value survives.
   [clear] vacates every slot the same way. Three drives: out-of-order
   adds (both the run and the binary heap fill), then pops or a clear;
   and in-order adds interleaved with pops, which makes the run slide
   its live entries down. *)
let test_heap_releases_popped () =
  let n = 1_000 in
  let reachable_after drive =
    let h = Heap.create () in
    let weak = Weak.create n in
    let add i ~priority =
      let v = ref i in
      Weak.set weak i (Some v);
      Heap.add h ~priority ~seq:i v
    in
    drive h add;
    Gc.full_major ();
    Gc.full_major ();
    let live = ref 0 in
    for i = 0 to n - 1 do
      if Weak.check weak i then incr live
    done;
    (* keep the queue itself alive across the collections *)
    ignore (Sys.opaque_identity (Heap.length h));
    !live
  in
  let add_shuffled add =
    for i = 0 to n - 1 do
      add i ~priority:(float_of_int (i mod 13))
    done
  in
  let drain h =
    while not (Heap.is_empty h) do
      ignore (Heap.pop_exn h)
    done
  in
  let popped =
    reachable_after (fun h add ->
        add_shuffled add;
        drain h)
  in
  check_bool
    (Printf.sprintf "at most one popped value reachable (%d)" popped)
    true (popped <= 1);
  let cleared =
    reachable_after (fun h add ->
        add_shuffled add;
        Heap.clear h)
  in
  check_bool
    (Printf.sprintf "at most one cleared value reachable (%d)" cleared)
    true (cleared <= 1);
  let slid =
    reachable_after (fun h add ->
        for i = 0 to n - 1 do
          add i ~priority:(float_of_int i);
          if i mod 4 = 3 then
            for _ = 1 to 3 do
              ignore (Heap.pop_exn h)
            done
        done;
        drain h)
  in
  check_bool
    (Printf.sprintf "at most one value reachable after slides (%d)" slid)
    true (slid <= 1)

(* --- Engine ----------------------------------------------------------------- *)

let test_engine_delivery () =
  let log = ref [] in
  let eng = Engine.create ~seed:1 () in
  let a = Engine.spawn eng (fun _ msg -> log := ("a", msg) :: !log) in
  let b = Engine.spawn eng (fun ctx msg ->
      log := ("b", msg) :: !log;
      if msg = "ping" then Engine.send ctx a "pong")
  in
  Engine.inject eng ~dst:b "ping";
  check_bool "quiescent" true (Engine.run eng = `Quiescent);
  check_bool "order" true (List.rev !log = [ ("b", "ping"); ("a", "pong") ]);
  check_int "messages" 2 (Engine.messages_sent eng);
  check_float "time advanced" 2.0 (Engine.now eng)

let test_engine_kill () =
  let eng = Engine.create ~seed:1 () in
  let received = ref 0 in
  let a = Engine.spawn eng (fun _ _ -> incr received) in
  Engine.kill eng a;
  check_bool "dead" true (not (Engine.is_alive eng a));
  Engine.inject eng ~dst:a "x";
  ignore (Engine.run eng);
  check_int "not delivered" 0 !received;
  check_int "dropped" 1 (Engine.messages_dropped eng);
  Engine.kill eng a (* idempotent *);
  check_int "alive count" 0 (Engine.alive_count eng)

let test_engine_self_messages () =
  let eng = Engine.create ~seed:1 () in
  let count = ref 0 in
  let a =
    Engine.spawn eng (fun ctx _ ->
        incr count;
        if !count < 5 then Engine.send ctx (Engine.self ctx) "again")
  in
  Engine.inject eng ~dst:a "start";
  ignore (Engine.run eng);
  check_int "handled 5 times" 5 !count;
  check_int "self messages" 4 (Engine.self_messages eng);
  check_int "real messages" 1 (Engine.messages_sent eng)

let test_engine_limit () =
  let eng = Engine.create ~seed:1 () in
  let a = Engine.spawn eng (fun ctx _ -> Engine.send ctx (Engine.self ctx) "loop") in
  Engine.inject eng ~dst:a "go";
  check_bool "hits limit" true (Engine.run ~max_events:100 eng = `Limit);
  check_int "counted" 100 (Engine.events_processed eng)

let test_engine_determinism () =
  let run_once () =
    let eng = Engine.create ~seed:7 ~latency:(Engine.Uniform (0.5, 2.0)) () in
    let log = ref [] in
    let nodes =
      List.init 5 (fun i ->
          Engine.spawn eng (fun _ msg -> log := (i, msg) :: !log))
    in
    List.iteri (fun i dst -> Engine.inject eng ~dst (string_of_int i)) nodes;
    ignore (Engine.run eng);
    !log
  in
  check_bool "deterministic across runs" true (run_once () = run_once ())

let test_engine_counters_reset () =
  let eng = Engine.create ~seed:1 () in
  let a = Engine.spawn eng (fun _ _ -> ()) in
  Engine.inject eng ~dst:a "x";
  ignore (Engine.run eng);
  Engine.reset_counters eng;
  check_int "sent reset" 0 (Engine.messages_sent eng);
  check_int "processed reset" 0 (Engine.events_processed eng)

let test_engine_drop_rate () =
  let eng = Engine.create ~drop_rate:0.5 ~seed:3 () in
  let received = ref 0 in
  let a = Engine.spawn eng (fun _ _ -> incr received) in
  for _ = 1 to 200 do
    Engine.inject eng ~dst:a "x"
  done;
  ignore (Engine.run eng);
  let lost = Engine.messages_lost eng in
  check_int "received + lost = sent" 200 (!received + lost);
  check_bool "roughly half lost" true (lost > 60 && lost < 140);
  (* Self-messages are never lost. *)
  let eng2 = Engine.create ~drop_rate:0.9 ~seed:4 () in
  let count = ref 0 in
  let b =
    Engine.spawn eng2 (fun ctx _ ->
        incr count;
        if !count < 10 then Engine.send ctx (Engine.self ctx) "again")
  in
  (* The kickoff injection may itself be lost; retry until it lands. *)
  let rec kick () =
    Engine.inject eng2 ~dst:b "go";
    ignore (Engine.run eng2);
    if !count = 0 then kick ()
  in
  kick ();
  check_int "self chain complete" 10 !count;
  check_bool "bad rate" true
    (try ignore (Engine.create ~drop_rate:1.0 ~seed:1 ()); false
     with Invalid_argument _ -> true)

(* --- Engine: transports ------------------------------------------------------ *)

(* A toy framing codec for string messages: 2-byte marker + payload,
   so frames have observable sizes and decoding can actually fail. *)
let toy_codec =
  {
    Sim.Transport.encode = (fun s -> "F:" ^ s);
    decode =
      (fun f ->
        let n = String.length f in
        if n >= 2 && f.[0] = 'F' && f.[1] = ':' then Ok (String.sub f 2 (n - 2))
        else Error "bad frame marker");
  }

let test_engine_wire_roundtrip () =
  let eng = Engine.create ~transport:(Sim.Transport.wire toy_codec) ~seed:1 () in
  let log = ref [] in
  let a = Engine.spawn eng (fun _ msg -> log := msg :: !log) in
  let b =
    Engine.spawn eng (fun ctx msg ->
        log := msg :: !log;
        if msg = "ping" then Engine.send ctx a "pong!")
  in
  Engine.inject eng ~dst:b "ping";
  ignore (Engine.run eng);
  check_bool "decoded values delivered" true
    (List.rev !log = [ "ping"; "pong!" ]);
  (* "F:ping" = 6 bytes, "F:pong!" = 7 bytes. *)
  check_int "bytes sent" 13 (Engine.bytes_sent eng);
  check_int "bytes received" 13 (Engine.bytes_received eng);
  check_int "no decode errors" 0 (Engine.decode_errors eng);
  (* Self-messages bypass the transport: no frames, no bytes. *)
  let eng2 = Engine.create ~transport:(Sim.Transport.wire toy_codec) ~seed:1 () in
  let count = ref 0 in
  let c =
    Engine.spawn eng2 (fun ctx _ ->
        incr count;
        if !count < 3 then Engine.send ctx (Engine.self ctx) "again")
  in
  Engine.inject eng2 ~dst:c "go";
  ignore (Engine.run eng2);
  check_int "self chain ran" 3 !count;
  check_int "only the injection framed" 4 (Engine.bytes_sent eng2);
  Engine.reset_counters eng;
  check_int "bytes reset" 0 (Engine.bytes_sent eng + Engine.bytes_received eng)

let test_engine_decode_failure () =
  (* decode rejects what encode produced: the engine must count the
     error, surface the description, and discard the message. *)
  let poisoned =
    {
      Sim.Transport.encode = toy_codec.Sim.Transport.encode;
      decode =
        (fun f ->
          if f = "F:poison" then Error "poisoned frame"
          else toy_codec.Sim.Transport.decode f);
    }
  in
  let eng = Engine.create ~transport:(Sim.Transport.wire poisoned) ~seed:1 () in
  let got = ref [] in
  let a = Engine.spawn eng (fun _ msg -> got := msg :: !got) in
  Engine.inject eng ~dst:a "ok";
  Engine.inject eng ~dst:a "poison";
  Engine.inject eng ~dst:a "ok2";
  ignore (Engine.run eng);
  check_bool "only clean frames delivered" true
    (List.rev !got = [ "ok"; "ok2" ]);
  check_int "decode errors" 1 (Engine.decode_errors eng);
  check_bool "last error kept" true
    (Engine.last_decode_error eng = Some "poisoned frame");
  (* the rejected frame was sent but never received *)
  check_int "sent counts all three" 3 (Engine.messages_sent eng);
  check_int "received skips the bad frame" 9 (Engine.bytes_received eng)

let test_engine_wire_schedule_identity () =
  (* The transport must not perturb the deterministic schedule: same
     seed, same jittered latencies, same delivery order — wire only
     adds byte accounting. *)
  let run_with transport =
    let eng = Engine.create ~transport ~seed:7 ~latency:(Engine.Uniform (0.5, 2.0)) () in
    let log = ref [] in
    let nodes =
      List.init 5 (fun i ->
          Engine.spawn eng (fun _ msg -> log := (i, msg) :: !log))
    in
    List.iteri (fun i dst -> Engine.inject eng ~dst (string_of_int i)) nodes;
    ignore (Engine.run eng);
    (!log, Engine.messages_sent eng, Engine.bytes_sent eng)
  in
  let log_i, sent_i, bytes_i = run_with Sim.Transport.inproc in
  let log_w, sent_w, bytes_w = run_with (Sim.Transport.wire toy_codec) in
  check_bool "same delivery log" true (log_i = log_w);
  check_int "same message count" sent_i sent_w;
  check_int "inproc carries no bytes" 0 bytes_i;
  check_bool "wire counts bytes" true (bytes_w > 0)

let test_engine_per_byte_loss () =
  let eng = Engine.create ~transport:(Sim.Transport.wire toy_codec)
      ~drop_rate:0.02 ~seed:11 ()
  in
  Engine.set_loss_model eng Engine.Per_byte;
  check_bool "model installed" true (Engine.loss_model eng = Engine.Per_byte);
  let short_got = ref 0 and long_got = ref 0 in
  let a = Engine.spawn eng (fun _ _ -> incr short_got) in
  let b = Engine.spawn eng (fun _ _ -> incr long_got) in
  let long_payload = String.make 100 'x' in
  for _ = 1 to 300 do
    Engine.inject eng ~dst:a "s";
    (* 3-byte frame: survives w.p. 0.98^3 ~ 0.94 *)
    Engine.inject eng ~dst:b long_payload
    (* 102-byte frame: survives w.p. 0.98^102 ~ 0.13 *)
  done;
  ignore (Engine.run eng);
  check_bool "short frames mostly survive" true (!short_got > 250);
  check_bool "long frames mostly lost" true (!long_got < 100);
  check_bool "losses accounted in bytes" true (Engine.bytes_lost eng > 0);
  check_int "conservation" 600
    (!short_got + !long_got + Engine.messages_lost eng)

let test_engine_meter () =
  let eng = Engine.create ~transport:(Sim.Transport.wire toy_codec) ~seed:1 () in
  let sent = ref 0 and sent_bytes = ref 0 and recv = ref 0 in
  Engine.set_meter eng
    (Some
       (fun dir _msg bytes ->
         match dir with
         | `Sent ->
             incr sent;
             sent_bytes := !sent_bytes + bytes
         | `Received -> incr recv));
  let a =
    Engine.spawn eng (fun ctx msg ->
        (* self-messages must not be metered *)
        if msg = "first" then Engine.send ctx (Engine.self ctx) "self")
  in
  Engine.inject eng ~dst:a "first";
  ignore (Engine.run eng);
  check_int "metered sends mirror messages_sent" (Engine.messages_sent eng)
    !sent;
  check_int "metered bytes mirror bytes_sent" (Engine.bytes_sent eng)
    !sent_bytes;
  check_int "metered receives" 1 !recv;
  Engine.set_meter eng None;
  Engine.inject eng ~dst:a "unmetered";
  ignore (Engine.run eng);
  check_int "uninstalled" 1 !sent

let test_engine_drop_rate_validation () =
  (* create and set_drop_rate must validate identically (both ends of
     the interval, both entry points). *)
  let raises f =
    try
      f ();
      false
    with Invalid_argument _ -> true
  in
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "create rejects %g" bad)
        true
        (raises (fun () -> ignore (Engine.create ~drop_rate:bad ~seed:1 ())));
      check_bool
        (Printf.sprintf "set_drop_rate rejects %g" bad)
        true
        (raises (fun () ->
             let eng = Engine.create ~seed:1 () in
             Engine.set_drop_rate eng bad)))
    [ -0.1; -1e-9; 1.0; 1.5; infinity ];
  (* Boundary values both accept. *)
  let eng = Engine.create ~drop_rate:0.0 ~seed:1 () in
  Engine.set_drop_rate eng 0.999999;
  Engine.set_drop_rate eng 0.0

let test_engine_alive_nodes () =
  let eng = Engine.create ~seed:1 () in
  let ids = List.init 4 (fun _ -> Engine.spawn eng (fun _ _ -> ())) in
  Engine.kill eng (List.nth ids 1);
  check_bool "alive list" true
    (Engine.alive_nodes eng = [ List.nth ids 0; List.nth ids 2; List.nth ids 3 ]);
  check_int "spawned" 4 (Engine.spawned_count eng)

(* The handler table is an array indexed by id: a negative id, an id
   past the spawn range and a killed id all find no handler, and a
   message to any of them is dropped and counted like one to a dead
   process. An environment injection to a negative id is still an
   inter-process message, never a self-message. *)
let test_engine_drops_unknown_ids () =
  let eng = Engine.create ~seed:1 () in
  let got = ref 0 in
  let a =
    Engine.spawn eng (fun ctx msg ->
        incr got;
        if msg = "relay" then Engine.send ctx (-7) "from a")
  in
  let b = Engine.spawn eng (fun _ _ -> incr got) in
  Engine.kill eng b;
  let past = Engine.spawned_count eng in
  let targets = [ -1; min_int; past; past + 1_000; b ] in
  List.iter
    (fun id ->
      check_bool (Printf.sprintf "%d not alive" id) false
        (Engine.is_alive eng id))
    targets;
  check_bool "spawned id alive" true (Engine.is_alive eng a);
  List.iter (fun dst -> Engine.inject eng ~dst "x") targets;
  Engine.inject eng ~dst:a "relay";
  ignore (Engine.run eng);
  check_int "every undeliverable message dropped"
    (List.length targets + 1)
    (Engine.messages_dropped eng);
  check_int "only the relay was handled" 1 !got;
  check_int "no self-messages" 0 (Engine.self_messages eng);
  check_int "all counted as sent" (List.length targets + 2)
    (Engine.messages_sent eng);
  (* Spawning grows the table past the old end. *)
  let c = Engine.spawn eng (fun _ _ -> incr got) in
  check_int "dense ids" past c;
  Engine.inject eng ~dst:c "x";
  ignore (Engine.run eng);
  check_int "new process handles" 2 !got

(* The traffic meter indexes its counters by kind code; the
   string-keyed readers keep their behaviour across a reset: only
   post-reset traffic shows, and only kinds that carried a message
   are listed. *)
let test_traffic_reset () =
  let module Tele = Drtree.Telemetry in
  let module M = Drtree.Message in
  let hb = M.kind_code (M.Heartbeat { from = 0; seq = 0 }) in
  let tele = Tele.create () in
  Tele.record_traffic tele `Sent ~code:hb ~bytes:5;
  Tele.record_traffic tele `Received ~code:hb ~bytes:5;
  check_bool "one kind" true
    (List.map fst (Tele.traffic_entries tele) = [ "HEARTBEAT" ]);
  Tele.reset_traffic tele;
  check_bool "reset empties the listing" true (Tele.traffic_entries tele = []);
  check_int "reset zeroes" 0 (Tele.traffic_of tele "HEARTBEAT").Tele.sent_msgs;
  Tele.record_traffic tele `Received ~code:hb ~bytes:9;
  let c = Tele.traffic_of tele "HEARTBEAT" in
  check_bool "post-reset counts only" true
    (c.Tele.sent_msgs = 0 && c.Tele.sent_bytes = 0 && c.Tele.recv_msgs = 1
    && c.Tele.recv_bytes = 9);
  check_int "unknown kind reads zero" 0
    (Tele.traffic_of tele "NOPE").Tele.recv_msgs;
  (* The same contract through an overlay's engine meter. *)
  let ov =
    Drtree.Overlay.create ~transport:Drtree.Message.Codec.transport ~seed:5 ()
  in
  let eng = Drtree.Overlay.engine ov in
  let tele = Drtree.Overlay.telemetry ov in
  let join x =
    ignore
      (Drtree.Overlay.join ov
         (Geometry.Rect.make2 ~x0:x ~y0:x ~x1:(x +. 3.0) ~y1:(x +. 3.0)))
  in
  List.iter join [ 1.0; 20.0; 40.0; 60.0 ];
  check_bool "traffic before reset" true (Tele.traffic_entries tele <> []);
  Tele.reset_traffic tele;
  Engine.reset_counters eng;
  join 80.0;
  let entries = Tele.traffic_entries tele in
  check_bool "listed kinds carried a message" true
    (entries <> []
    && List.for_all
         (fun (_, c) -> c.Tele.sent_msgs + c.Tele.recv_msgs > 0)
         entries);
  check_bool "kind-sorted" true
    (List.map fst entries = List.sort String.compare (List.map fst entries));
  let sum f = List.fold_left (fun acc (_, c) -> acc + f c) 0 entries in
  check_int "sent messages are post-reset" (Engine.messages_sent eng)
    (sum (fun c -> c.Tele.sent_msgs));
  check_int "sent bytes are post-reset" (Engine.bytes_sent eng)
    (sum (fun c -> c.Tele.sent_bytes));
  check_int "received bytes are post-reset" (Engine.bytes_received eng)
    (sum (fun c -> c.Tele.recv_bytes))

(* --- Churn ------------------------------------------------------------------ *)

let test_churn_trace () =
  let rng = Rng.make 21 in
  let tr = Churn.trace rng ~join_rate:2.0 ~leave_rate:1.0 ~horizon:100.0 in
  check_bool "non-empty" true (tr <> []);
  List.iter (fun (t, _) -> check_bool "in horizon" true (t >= 0.0 && t < 100.0)) tr;
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) tr in
  check_bool "sorted" true (tr = sorted);
  let joins = List.length (List.filter (fun (_, a) -> a = Churn.Join) tr) in
  let total = List.length tr in
  (* ~300 events expected, two thirds joins. *)
  check_bool "rate plausible" true (total > 200 && total < 400);
  check_bool "mix plausible" true
    (let frac = float_of_int joins /. float_of_int total in
     frac > 0.55 && frac < 0.78)

let test_departure_times () =
  let rng = Rng.make 22 in
  let ts = Churn.departure_times rng ~rate:5.0 ~count:100 in
  check_int "count" 100 (List.length ts);
  let sorted = List.sort Float.compare ts in
  check_bool "sorted" true (ts = sorted);
  check_bool "positive" true (List.for_all (fun t -> t > 0.0) ts)

(* --- Allocation regressions ------------------------------------------------- *)

(* Minor-heap words allocated by [f ()], after one warm-up call so
   lazy initialisation and buffer growth don't count against the
   steady state. *)
let minor_words_of f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  w1 -. w0

let test_alloc_engine_events () =
  let eng = Engine.create ~seed:1 () in
  let n = Engine.spawn eng (fun _ _ -> ()) in
  let m = 10_000 in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to m do
          Engine.inject eng ~dst:n "x"
        done;
        ignore (Engine.run eng))
  in
  let per_event = words /. float_of_int m in
  (* Measured 15 words/event: the queued delivery record, the handler
     context and boxed floats for the priority and the clock. The
     bound leaves headroom for compiler drift but catches any return
     of per-event option/tuple allocations or of a queue comparison
     that boxes its priorities (~100 words/event). *)
  check_bool
    (Printf.sprintf "inproc delivery stays lean (%.1f words/event)" per_event)
    true
    (per_event <= 48.0)

let test_alloc_codec_encode () =
  let small = Drtree.Message.Check_mbr 3 in
  let levels =
    List.init 6 (fun h ->
        {
          Drtree.Message.height = h;
          mbr = Geometry.Rect.make2 ~x0:0.0 ~y0:0.0 ~x1:50.0 ~y1:50.0;
          parent = h;
          children = Sim.Node_id.Set.of_list (List.init 30 (fun i -> i + h));
        })
  in
  let big =
    Drtree.Message.Report
      {
        snapshot =
          {
            Drtree.Message.responder = 1;
            top = 5;
            filter = Geometry.Rect.make2 ~x0:0.0 ~y0:0.0 ~x1:9.0 ~y1:9.0;
            levels;
          };
      }
  in
  let k = 5_000 in
  let per_encode msg =
    let words =
      minor_words_of (fun () ->
          for _ = 1 to k do
            ignore (Drtree.Message.Codec.encode msg)
          done)
    in
    words /. float_of_int k
  in
  let small_words = per_encode small in
  (* A one-byte-body frame allocates only the result string. *)
  check_bool
    (Printf.sprintf "small frame encode (%.1f words)" small_words)
    true
    (small_words <= 16.0);
  let big_len =
    float_of_int (String.length (Drtree.Message.Codec.encode big))
  in
  let big_words = per_encode big in
  (* The scratch writer makes encode cost the result string plus boxed
     float bits: measured ~0.5 words/byte on a 437-byte Report. The
     old Buffer-backed path cost ~4 words/byte; one frame length bounds
     both regressions. *)
  check_bool
    (Printf.sprintf "big frame encode O(len) (%.1f words, len=%.0f)" big_words
       big_len)
    true
    (big_words <= big_len)

let test_alloc_wire_round () =
  let cfg = Drtree.Config.make () in
  let ov =
    Drtree.Overlay.create ~cfg ~transport:Drtree.Message.Codec.transport
      ~seed:3 ()
  in
  let rng = Rng.make 33 in
  for _ = 1 to 64 do
    let x0 = Rng.range rng 0.0 90.0 and y0 = Rng.range rng 0.0 90.0 in
    ignore
      (Drtree.Overlay.join ov
         (Geometry.Rect.make2 ~x0 ~y0 ~x1:(x0 +. 5.0) ~y1:(y0 +. 5.0)))
  done;
  ignore (Drtree.Overlay.stabilize ~max_rounds:100 ~legal:Drtree.Invariant.is_legal ov);
  let eng = Drtree.Overlay.engine ov in
  (* Shared-state rounds probe without messages, so drive the
     message-passing round: every node QUERYs each neighbor through
     the wire codec. *)
  Drtree.Overlay.stabilize_round_mp ov;
  let s0 = ref 0 and b0 = ref 0 in
  let words =
    minor_words_of (fun () ->
        s0 := Engine.messages_sent eng + Engine.self_messages eng;
        b0 := Engine.bytes_sent eng;
        Drtree.Overlay.stabilize_round_mp ov)
  in
  let msgs = Engine.messages_sent eng + Engine.self_messages eng - !s0 in
  let bytes = Engine.bytes_sent eng - !b0 in
  check_bool "round sends messages (measurement not vacuous)" true (msgs > 0);
  check_bool "frames carry bytes" true (bytes > 0);
  let per_msg = words /. float_of_int msgs in
  (* Each QUERY/REPORT costs the snapshot records it legitimately
     builds plus one codec round-trip: measured ~420 words/message on
     a stabilized 64-node overlay, independent of how many frames the
     round pushes. Catches any per-byte buffer churn creeping back
     into the encode/decode hot loop. *)
  check_bool
    (Printf.sprintf "wire round O(messages) (%d msgs, %.1f words/msg)" msgs
       per_msg)
    true
    (per_msg <= 1200.0)

(* --- Properties ---------------------------------------------------------------- *)

(* The heap against a model: a list kept sorted by (priority, seq),
   driven by random interleavings of add, pop, pop_exn and clear.
   Priorities come from a handful of values so most comparisons are
   ties, and sequence numbers are unique but unrelated to insertion
   order, so the tiebreak is exercised in both directions. *)
let prop_heap_model =
  let op =
    QCheck2.Gen.(
      frequency
        [
          (6, map2 (fun p s -> `Add (p, s)) (int_range 0 4) (int_range 0 50));
          (3, pure `Pop);
          (2, pure `Pop_exn);
          (1, pure `Clear);
        ])
  in
  QCheck2.Test.make ~name:"heap matches a sorted-list model" ~count:300
    QCheck2.Gen.(list_size (int_range 0 400) op)
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let cmp (p1, s1, _) (p2, s2, _) =
        match Float.compare p1 p2 with 0 -> Int.compare s1 s2 | c -> c
      in
      let step i op =
        match op with
        | `Add (p, s) ->
            let e = (float_of_int p, (s * 1_000) + i, i) in
            let prio, seq, v = e in
            Heap.add h ~priority:prio ~seq v;
            model := List.merge cmp [ e ] !model;
            true
        | `Pop -> (
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some got, m :: rest ->
                model := rest;
                got = m
            | Some _, [] | None, _ :: _ -> false)
        | `Pop_exn -> (
            match !model with
            | [] -> Heap.is_empty h
            | (p, _, v) :: rest ->
                model := rest;
                let prio = Heap.min_prio h in
                Float.equal prio p && Heap.pop_exn h = v)
        | `Clear ->
            Heap.clear h;
            model := [];
            true
      in
      let agrees () =
        Heap.length h = List.length !model
        && Heap.peek h = match !model with [] -> None | m :: _ -> Some m
      in
      let rec go i = function
        | [] -> true
        | op :: rest -> step i op && agrees () && go (i + 1) rest
      in
      go 0 ops)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck2.Gen.(list_size (int_range 1 200) (float_range 0.0 1000.0))
    (fun priorities ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.add h ~priority:p ~seq:i i) priorities;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some (p, _, _) -> p >= last && drain p
      in
      drain neg_infinity)

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "pick/shuffle" `Quick test_rng_pick_shuffle;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "poisson" `Quick test_rng_poisson;
          Alcotest.test_case "zipf" `Quick test_rng_zipf;
          Alcotest.test_case "gaussian" `Quick test_rng_gaussian;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo tiebreak" `Quick test_heap_tiebreak;
          Alcotest.test_case "stress" `Quick test_heap_stress;
          Alcotest.test_case "popped values released" `Quick
            test_heap_releases_popped;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivery" `Quick test_engine_delivery;
          Alcotest.test_case "kill" `Quick test_engine_kill;
          Alcotest.test_case "self messages" `Quick test_engine_self_messages;
          Alcotest.test_case "event limit" `Quick test_engine_limit;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "counter reset" `Quick test_engine_counters_reset;
          Alcotest.test_case "message loss" `Quick test_engine_drop_rate;
          Alcotest.test_case "alive tracking" `Quick test_engine_alive_nodes;
          Alcotest.test_case "unknown ids dropped" `Quick
            test_engine_drops_unknown_ids;
        ] );
      ( "transport",
        [
          Alcotest.test_case "wire roundtrip" `Quick test_engine_wire_roundtrip;
          Alcotest.test_case "decode failure" `Quick test_engine_decode_failure;
          Alcotest.test_case "schedule identity" `Quick
            test_engine_wire_schedule_identity;
          Alcotest.test_case "per-byte loss" `Quick test_engine_per_byte_loss;
          Alcotest.test_case "meter hook" `Quick test_engine_meter;
          Alcotest.test_case "traffic reset" `Quick test_traffic_reset;
          Alcotest.test_case "drop-rate validation" `Quick
            test_engine_drop_rate_validation;
        ] );
      ( "churn",
        [
          Alcotest.test_case "merged trace" `Quick test_churn_trace;
          Alcotest.test_case "departure times" `Quick test_departure_times;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "engine words/event" `Quick
            test_alloc_engine_events;
          Alcotest.test_case "codec words/encode" `Quick
            test_alloc_codec_encode;
          Alcotest.test_case "wire round words/message" `Quick
            test_alloc_wire_round;
        ] );
    ]
