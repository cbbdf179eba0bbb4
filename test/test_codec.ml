(* Tests for the binary wire codec (Message.Codec): a qcheck
   round-trip property over a generator covering every message
   variant — including degenerate and unbounded rectangles and empty
   children sets — plus adversarial decoder tests (truncation,
   trailing garbage, unknown tags, hostile counts). *)

module M = Drtree.Message
module R = Geometry.Rect
module P = Geometry.Point
module Set = Sim.Node_id.Set
open QCheck2

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Generators -------------------------------------------------------------- *)

let gen_id = Gen.int_range 0 100_000

(* Coordinates stress the float path: negatives, huge magnitudes,
   exact integers, subnormal-ish values. NaN is excluded (Rect.make
   rejects it, so no encodable rect carries one). *)
let gen_coord =
  Gen.frequency
    [
      (4, Gen.float_range (-1000.0) 1000.0);
      (1, Gen.pure 0.0);
      (1, Gen.pure (-0.0));
      (1, Gen.pure 1e308);
      (1, Gen.pure 4.9e-324);
    ]

(* Rectangles: ordinary 2-d boxes, degenerate (zero-extent) boxes,
   higher-dimensional boxes, and rects unbounded on some or all
   sides — everything [Rect.make] accepts must round-trip. *)
let gen_rect =
  let open Gen in
  let bounded dims =
    array_repeat dims gen_coord >>= fun a ->
    array_repeat dims gen_coord >|= fun b ->
    let low = Array.mapi (fun i x -> Float.min x b.(i)) a in
    let high = Array.mapi (fun i x -> Float.max x b.(i)) a in
    R.make ~low ~high
  in
  let degenerate dims =
    array_repeat dims gen_coord >|= fun a -> R.make ~low:a ~high:(Array.copy a)
  in
  let half_open dims =
    array_repeat dims gen_coord >>= fun a ->
    array_repeat dims (Gen.oneofl [ `Lo; `Hi; `Both; `Neither ]) >|= fun sides ->
    let low = Array.copy a and high = Array.copy a in
    Array.iteri
      (fun i side ->
        (match side with
        | `Lo | `Both -> low.(i) <- neg_infinity
        | `Hi | `Neither -> ());
        match side with
        | `Hi | `Both -> high.(i) <- infinity
        | `Lo | `Neither -> high.(i) <- high.(i) +. 1.0)
      sides;
    R.make ~low ~high
  in
  int_range 1 4 >>= fun dims ->
  frequency
    [
      (4, bounded dims);
      (1, degenerate dims);
      (2, half_open dims);
      (1, pure (R.universe dims));
    ]

let gen_point =
  Gen.(int_range 1 4 >>= fun dims -> array_repeat dims gen_coord >|= P.make)

(* Children sets include empty (a set can legitimately be mid-repair)
   and singleton cases. *)
let gen_id_set =
  Gen.(
    list_size (int_range 0 8) gen_id >|= fun ids -> Set.of_list ids)

let gen_level =
  Gen.(
    gen_rect >>= fun mbr ->
    gen_id >>= fun parent ->
    gen_id_set >>= fun children ->
    int_range 0 10 >|= fun height -> { M.height; mbr; parent; children })

let gen_snapshot =
  Gen.(
    gen_id >>= fun responder ->
    int_range 0 6 >>= fun top ->
    gen_rect >>= fun filter ->
    list_size (int_range 0 7) gen_level >|= fun levels ->
    { M.responder; top; filter; levels })

let gen_agg_fn = Gen.oneofl [ M.Count; M.Sum; M.Min; M.Max; M.Avg ]

(* Partials include the empty-summary sentinel (count 0, min/max at
   the infinities) the aggregation algebra relies on. *)
let gen_partial =
  Gen.(
    frequency
      [
        ( 1,
          pure
            { M.a_count = 0; a_sum = 0.0; a_min = infinity;
              a_max = neg_infinity } );
        ( 4,
          int_range 1 1000 >>= fun a_count ->
          gen_coord >>= fun a_sum ->
          gen_coord >>= fun a_min ->
          gen_coord >|= fun a_max -> { M.a_count; a_sum; a_min; a_max } );
      ])

let gen_query =
  Gen.(
    int_range 0 1000 >>= fun query_id ->
    gen_rect >>= fun q_rect ->
    gen_agg_fn >>= fun q_fn ->
    float_range 0.0 16.0 >>= fun q_tct ->
    gen_id >|= fun q_owner -> { M.query_id; q_rect; q_fn; q_tct; q_owner })

let gen_height = Gen.int_range 0 12
let gen_hops = Gen.int_range 0 128

(* Every variant, roughly evenly: the round-trip property must cover
   all 19 tags, and the shrinker benefits from the simple ones. *)
let gen_message =
  let open Gen in
  oneof
    [
      (gen_id >|= fun asker -> M.Query { asker });
      (gen_snapshot >|= fun snapshot -> M.Report { snapshot });
      ( gen_id >>= fun joiner ->
        gen_rect >>= fun mbr ->
        gen_height >>= fun height ->
        oneof [ pure `Up; (gen_height >|= fun at -> `Down at) ]
        >>= fun phase ->
        gen_hops >|= fun hops -> M.Join { joiner; mbr; height; phase; hops } );
      ( gen_id >>= fun child ->
        gen_rect >>= fun mbr ->
        gen_height >>= fun height ->
        gen_hops >|= fun hops -> M.Add_child { child; mbr; height; hops } );
      ( gen_id >>= fun who ->
        gen_height >|= fun height -> M.Leave { who; height } );
      (gen_height >|= fun h -> M.Check_mbr h);
      (gen_height >|= fun h -> M.Check_parent h);
      (gen_height >|= fun h -> M.Check_children h);
      (gen_height >|= fun h -> M.Check_cover h);
      (gen_height >|= fun h -> M.Check_structure h);
      (gen_height >|= fun h -> M.Cover_sweep h);
      (gen_height >|= fun h -> M.Initiate_new_connection h);
      ( int_range 0 10_000 >>= fun event_id ->
        gen_point >>= fun point ->
        gen_height >>= fun at ->
        option gen_id >>= fun from_child ->
        bool >>= fun going_up ->
        gen_hops >|= fun hops ->
        M.Publish { event_id; point; at; from_child; going_up; hops } );
      ( gen_query >>= fun query ->
        gen_hops >|= fun hops -> M.Agg_subscribe { query; hops } );
      ( int_range 0 1000 >>= fun query_id ->
        int_range 0 10_000 >>= fun epoch ->
        gen_id >>= fun child ->
        gen_height >>= fun at ->
        gen_partial >|= fun partial ->
        M.Agg_partial { query_id; epoch; child; at; partial } );
      ( int_range 0 1000 >>= fun query_id ->
        int_range 0 10_000 >>= fun epoch ->
        option gen_coord >|= fun value -> M.Agg_result { query_id; epoch; value } );
      ( int_range 0 1000 >>= fun query_id ->
        int_range 0 10_000 >>= fun epoch ->
        int_range 0 16 >>= fun shard ->
        gen_partial >|= fun partial ->
        M.Agg_merge { query_id; epoch; shard; partial } );
      ( gen_id >>= fun from ->
        int_range 0 10_000 >|= fun seq -> M.Heartbeat { from; seq } );
      ( gen_id >>= fun suspect ->
        gen_id >>= fun by ->
        int_range 0 10_000 >|= fun seq -> M.Suspect { suspect; by; seq } );
    ]

(* Structural [=] is almost right — Message.t is immutable structural
   data and the floats round-trip exactly — but [Node_id.Set.t] is a
   balanced tree whose internal shape depends on insertion order, so
   children sets (inside Report snapshots) need [Set.equal]. *)
let level_equal (a : M.level_snapshot) (b : M.level_snapshot) =
  a.M.height = b.M.height
  && R.equal a.M.mbr b.M.mbr
  && a.M.parent = b.M.parent
  && Set.equal a.M.children b.M.children

let msg_equal (a : M.t) (b : M.t) =
  match (a, b) with
  | M.Report { snapshot = sa }, M.Report { snapshot = sb } ->
      sa.M.responder = sb.M.responder
      && sa.M.top = sb.M.top
      && R.equal sa.M.filter sb.M.filter
      && List.compare_lengths sa.M.levels sb.M.levels = 0
      && List.for_all2 level_equal sa.M.levels sb.M.levels
  | _ -> a = b

(* --- Properties -------------------------------------------------------------- *)

let prop_roundtrip =
  Test.make ~name:"decode (encode m) = Ok m, all variants" ~count:2000
    ~print:(Format.asprintf "%a" M.pp) gen_message (fun m ->
      match M.Codec.decode (M.Codec.encode m) with
      | Ok m' -> msg_equal m m'
      | Error _ -> false)

let prop_size =
  Test.make ~name:"encoded_size = frame length" ~count:500 gen_message
    (fun m -> M.Codec.encoded_size m = String.length (M.Codec.encode m))

let prop_truncation =
  Test.make ~name:"every strict prefix of a frame is rejected" ~count:300
    ~print:(Format.asprintf "%a" M.pp) gen_message (fun m ->
      let frame = M.Codec.encode m in
      let n = String.length frame in
      let ok = ref true in
      for k = 0 to n - 1 do
        match M.Codec.decode (String.sub frame 0 k) with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      !ok)

let prop_trailing_garbage =
  Test.make ~name:"trailing bytes are rejected" ~count:300 gen_message
    (fun m ->
      let frame = M.Codec.encode m in
      match M.Codec.decode (frame ^ "\x00") with
      | Ok _ -> false
      | Error _ -> true)

(* Bit flips must never crash the decoder (Error or a successful parse
   of some other message are both acceptable; exceptions are not). *)
let prop_never_raises =
  Test.make ~name:"corrupted frames never raise" ~count:500
    Gen.(pair gen_message (pair small_nat (int_range 1 255)))
    (fun (m, (pos, flip)) ->
      let frame = Bytes.of_string (M.Codec.encode m) in
      let pos = pos mod Bytes.length frame in
      Bytes.set frame pos
        (Char.chr (Char.code (Bytes.get frame pos) lxor flip));
      match M.Codec.decode (Bytes.to_string frame) with
      | Ok _ | Error _ -> true)

(* --- Unit tests -------------------------------------------------------------- *)

let test_rejects_garbage () =
  let err s =
    match M.Codec.decode s with Ok _ -> false | Error _ -> true
  in
  check_bool "empty" true (err "");
  check_bool "short prefix" true (err "\x00\x00");
  check_bool "prefix without body" true (err "\x00\x00\x00\x05");
  check_bool "length overclaims" true (err "\x00\x00\x00\xff\x05\x03");
  (* tag 19 is unassigned: length 1, tag byte \x13 *)
  check_bool "unknown tag" true (err "\x00\x00\x00\x01\x13");
  (* Check_mbr with a count-bomb in place of a varint is impossible
     (fixed shape), but a Report advertising 2^60 levels must be
     rejected by the remaining-bytes bound, not attempted. *)
  let bomb =
    (* tag 1 (Report), responder=0, top=0, then a huge levels count:
       varint for 2^60 as zigzag LEB128 *)
    let b = Buffer.create 32 in
    Buffer.add_char b '\x01';
    Buffer.add_char b '\x00' (* responder 0 *);
    Buffer.add_char b '\x00' (* top 0 *);
    (* filter: dims=1, low=0.0, high=0.0 *)
    Buffer.add_char b '\x02' (* dims 1 (zigzag 1 -> 2) *);
    Buffer.add_string b (String.make 16 '\x00');
    (* levels count: zigzag(2^60) = 2^61, LEB128 *)
    let rec emit v =
      if Int64.unsigned_compare v 0x80L >= 0 then begin
        Buffer.add_char b
          (Char.chr (Int64.to_int (Int64.logor (Int64.logand v 0x7fL) 0x80L)));
        emit (Int64.shift_right_logical v 7)
      end
      else Buffer.add_char b (Char.chr (Int64.to_int v))
    in
    emit (Int64.shift_left 1L 61);
    let body = Buffer.contents b in
    let frame = Buffer.create 64 in
    Buffer.add_int32_be frame (Int32.of_int (String.length body));
    Buffer.add_string frame body;
    Buffer.contents frame
  in
  check_bool "hostile level count" true (err bomb)

(* Satellite of the failure-detector PR, but a format-wide guarantee:
   every constructor owns its own wire tag byte, and the codec is
   total over the full constructor set. The exemplar list below is
   pinned exhaustive by [ctor_index] — adding a Message.t constructor
   without a new exemplar (and tag arms) is a compile error under the
   zero-warnings policy. *)
let test_tags_unique_and_total () =
  let r = R.make2 ~x0:0.0 ~y0:0.0 ~x1:1.0 ~y1:1.0 in
  let snap = { M.responder = 1; top = 0; filter = r; levels = [] } in
  let q =
    { M.query_id = 1; q_rect = r; q_fn = M.Sum; q_tct = 0.0; q_owner = 1 }
  in
  let partial = { M.a_count = 1; a_sum = 1.0; a_min = 1.0; a_max = 1.0 } in
  let exemplars =
    [
      M.Query { asker = 1 };
      M.Report { snapshot = snap };
      M.Join { joiner = 1; mbr = r; height = 0; phase = `Up; hops = 0 };
      M.Add_child { child = 1; mbr = r; height = 0; hops = 0 };
      M.Leave { who = 1; height = 0 };
      M.Check_mbr 0;
      M.Check_parent 0;
      M.Check_children 0;
      M.Check_cover 0;
      M.Check_structure 0;
      M.Cover_sweep 0;
      M.Initiate_new_connection 0;
      M.Publish
        {
          event_id = 0;
          point = P.make2 0.5 0.5;
          at = 0;
          from_child = None;
          going_up = true;
          hops = 0;
        };
      M.Agg_subscribe { query = q; hops = 0 };
      M.Agg_partial { query_id = 1; epoch = 0; child = 1; at = 0; partial };
      M.Agg_result { query_id = 1; epoch = 0; value = None };
      M.Agg_merge { query_id = 1; epoch = 0; shard = 0; partial };
      M.Heartbeat { from = 1; seq = 0 };
      M.Suspect { suspect = 1; by = 2; seq = 0 };
    ]
  in
  let ctor_index : M.t -> int = function
    | M.Query _ -> 0
    | M.Report _ -> 1
    | M.Join _ -> 2
    | M.Add_child _ -> 3
    | M.Leave _ -> 4
    | M.Check_mbr _ -> 5
    | M.Check_parent _ -> 6
    | M.Check_children _ -> 7
    | M.Check_cover _ -> 8
    | M.Check_structure _ -> 9
    | M.Cover_sweep _ -> 10
    | M.Initiate_new_connection _ -> 11
    | M.Publish _ -> 12
    | M.Agg_subscribe _ -> 13
    | M.Agg_partial _ -> 14
    | M.Agg_result _ -> 15
    | M.Heartbeat _ -> 16
    | M.Suspect _ -> 17
    | M.Agg_merge _ -> 18
  in
  let covered = List.sort_uniq compare (List.map ctor_index exemplars) in
  check_int "one exemplar per constructor" 19 (List.length covered);
  (* The tag byte sits right after the u32 length prefix. *)
  let tags = List.map (fun m -> (M.Codec.encode m).[4]) exemplars in
  check_int "tag bytes pairwise unique" (List.length exemplars)
    (List.length (List.sort_uniq Char.compare tags));
  (* The kind code indexing the traffic counters is that byte, and
     each code names its own constructor (the traffic readers and the
     fuzz fingerprint key on these names). *)
  check_int "kind count" 19 M.kind_count;
  List.iter2
    (fun m tag ->
      check_int (M.tag m ^ " kind code is its tag byte") (Char.code tag)
        (M.kind_code m))
    exemplars tags;
  check_bool "kind names" true
    (List.map M.tag exemplars
    = [ "QUERY"; "REPORT"; "JOIN"; "ADD_CHILD"; "LEAVE"; "CHECK_MBR";
        "CHECK_PARENT"; "CHECK_CHILDREN"; "CHECK_COVER"; "CHECK_STRUCTURE";
        "COVER_SWEEP"; "INITIATE_NEW_CONNECTION"; "PUBLISH"; "AGG_SUBSCRIBE";
        "AGG_PARTIAL"; "AGG_RESULT"; "AGG_MERGE"; "HEARTBEAT"; "SUSPECT" ]);
  List.iter
    (fun m ->
      match M.Codec.decode (M.Codec.encode m) with
      | Ok m' -> check_bool (M.tag m ^ " round-trips") true (msg_equal m m')
      | Error e -> Alcotest.failf "decode failed for %s: %s" (M.tag m) e)
    exemplars

let test_known_frames () =
  (* A fixed-shape message has a stable tiny frame: u32 length, tag,
     zigzag varint payload. Pin one exact encoding so the format can't
     drift silently across refactors. *)
  Alcotest.(check string)
    "Check_mbr 3 frame" "\x00\x00\x00\x02\x05\x06"
    (M.Codec.encode (M.Check_mbr 3));
  check_int "encoded_size" 6 (M.Codec.encoded_size (M.Check_mbr 3));
  (* Negative heights are impossible in the protocol but the int codec
     is total; zigzag handles min_int without overflow. *)
  let m = M.Check_cover min_int in
  check_bool "min_int round-trips" true
    (M.Codec.decode (M.Codec.encode m) = Ok m);
  let m = M.Check_cover max_int in
  check_bool "max_int round-trips" true
    (M.Codec.decode (M.Codec.encode m) = Ok m)

let test_infinite_rect_roundtrip () =
  let r = R.universe 3 in
  let m = M.Add_child { child = 7; mbr = r; height = 2; hops = 1 } in
  (match M.Codec.decode (M.Codec.encode m) with
  | Ok (M.Add_child { mbr; _ }) ->
      check_bool "universe mbr survives" true (R.equal mbr r)
  | Ok _ | Error _ -> Alcotest.fail "decode failed");
  (* Empty children set in a snapshot level. *)
  let snap =
    {
      M.responder = 3;
      top = 1;
      filter = R.make2 ~x0:0.0 ~y0:0.0 ~x1:1.0 ~y1:1.0;
      levels =
        [
          {
            M.height = 1;
            mbr = R.make2 ~x0:0.0 ~y0:0.0 ~x1:1.0 ~y1:1.0;
            parent = 3;
            children = Set.empty;
          };
        ];
    }
  in
  let m = M.Report { snapshot = snap } in
  match M.Codec.decode (M.Codec.encode m) with
  | Ok m' -> check_bool "empty children set survives" true (m = m')
  | Error e -> Alcotest.fail ("decode failed: " ^ e)

let () =
  Alcotest.run "codec"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_size;
          Alcotest.test_case "unbounded rect / empty set" `Quick
            test_infinite_rect_roundtrip;
          Alcotest.test_case "known frames" `Quick test_known_frames;
          Alcotest.test_case "tag bytes unique and total" `Quick
            test_tags_unique_and_total;
        ] );
      ( "adversarial",
        [
          QCheck_alcotest.to_alcotest prop_truncation;
          QCheck_alcotest.to_alcotest prop_trailing_garbage;
          QCheck_alcotest.to_alcotest prop_never_raises;
          Alcotest.test_case "garbage frames" `Quick test_rejects_garbage;
        ] );
    ]
