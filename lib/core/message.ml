module Node_id = Sim.Node_id

type level_snapshot = {
  height : int;
  mbr : Geometry.Rect.t;
  parent : Node_id.t;
  children : Node_id.Set.t;
}

type snapshot = {
  responder : Node_id.t;
  top : int;
  filter : Geometry.Rect.t;
  levels : level_snapshot list;
}

type agg_fn = Count | Sum | Min | Max | Avg

let agg_fn_to_string = function
  | Count -> "count"
  | Sum -> "sum"
  | Min -> "min"
  | Max -> "max"
  | Avg -> "avg"

let agg_fn_of_string = function
  | "count" -> Some Count
  | "sum" -> Some Sum
  | "min" -> Some Min
  | "max" -> Some Max
  | "avg" -> Some Avg
  | _ -> None

type agg_partial = {
  a_count : int;
  a_sum : float;
  a_min : float;
  a_max : float;
}

type agg_query = {
  query_id : int;
  q_rect : Geometry.Rect.t;
  q_fn : agg_fn;
  q_tct : float;
  q_owner : Node_id.t;
}

type t =
  | Query of { asker : Node_id.t }
  | Report of { snapshot : snapshot }
  | Join of {
      joiner : Node_id.t;
      mbr : Geometry.Rect.t;
      height : int;
      phase : [ `Up | `Down of int ];
      hops : int;
    }
  | Add_child of {
      child : Node_id.t;
      mbr : Geometry.Rect.t;
      height : int;
      hops : int;
    }
  | Leave of { who : Node_id.t; height : int }
  | Check_mbr of int
  | Check_parent of int
  | Check_children of int
  | Check_cover of int
  | Check_structure of int
  | Cover_sweep of int
  | Initiate_new_connection of int
  | Publish of {
      event_id : int;
      point : Geometry.Point.t;
      at : int;
      from_child : Node_id.t option;
      going_up : bool;
      hops : int;
    }
  | Agg_subscribe of { query : agg_query; hops : int }
  | Agg_partial of {
      query_id : int;
      epoch : int;
      child : Node_id.t;
      at : int;
      partial : agg_partial;
    }
  | Agg_result of { query_id : int; epoch : int; value : float option }
  | Agg_merge of {
      query_id : int;
      epoch : int;
      shard : int;
      partial : agg_partial;
    }
  | Heartbeat of { from : Node_id.t; seq : int }
  | Suspect of { suspect : Node_id.t; by : Node_id.t; seq : int }

(* The kind code of a message is its wire tag byte: the codec writes
   it ahead of every payload, and the per-kind traffic counters
   ({!Telemetry}) are indexed by it. *)
let kind_code = function
  | Query _ -> 0
  | Report _ -> 1
  | Join _ -> 2
  | Add_child _ -> 3
  | Leave _ -> 4
  | Check_mbr _ -> 5
  | Check_parent _ -> 6
  | Check_children _ -> 7
  | Check_cover _ -> 8
  | Check_structure _ -> 9
  | Cover_sweep _ -> 10
  | Initiate_new_connection _ -> 11
  | Publish _ -> 12
  | Agg_subscribe _ -> 13
  | Agg_partial _ -> 14
  | Agg_result _ -> 15
  | Heartbeat _ -> 16
  | Suspect _ -> 17
  | Agg_merge _ -> 18

let kind_names =
  [| "QUERY"; "REPORT"; "JOIN"; "ADD_CHILD"; "LEAVE"; "CHECK_MBR";
     "CHECK_PARENT"; "CHECK_CHILDREN"; "CHECK_COVER"; "CHECK_STRUCTURE";
     "COVER_SWEEP"; "INITIATE_NEW_CONNECTION"; "PUBLISH"; "AGG_SUBSCRIBE";
     "AGG_PARTIAL"; "AGG_RESULT"; "HEARTBEAT"; "SUSPECT"; "AGG_MERGE" |]

let kind_count = Array.length kind_names
let kind_name code = kind_names.(code)
let tag m = kind_name (kind_code m)

(* {2 Wire codec}

   Length-prefixed binary frames: a u32 big-endian body length, a tag
   byte, then the payload. Integers travel as zigzag LEB128 varints
   (total over the whole OCaml int range), floats as their IEEE-754
   bits (8 bytes big-endian, so infinities and degenerate bounds
   round-trip exactly). The decoder is paranoid: truncation, trailing
   bytes, unknown tags, and payloads violating the geometric
   invariants (NaN bounds, low > high) are all rejected with [Error],
   never an exception — an undecodable frame must look like a lost
   message, not a crash. *)

module Codec = struct
  exception Bad of string

  let err fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

  (* Scratch frame writer: one module-level growable byte buffer reused
     across encodes, so the steady-state Wire hot loop allocates only
     the final frame string per message (the allocation-regression test
     in test_sim.ml holds it to that). [Buffer] cannot patch a length
     prefix in place, hence raw [Bytes]: {!encode} reserves a 4-byte
     placeholder, writes the body, then back-patches the length and
     takes a single [Bytes.sub_string]. Not reentrant — safe because
     the [add_*] writers never call user code. *)
  type writer = { mutable buf : Bytes.t; mutable len : int }

  let scratch = { buf = Bytes.create 256; len = 0 }

  let ensure w n =
    let need = w.len + n in
    if need > Bytes.length w.buf then begin
      let cap = ref (2 * Bytes.length w.buf) in
      while need > !cap do
        cap := 2 * !cap
      done;
      let buf = Bytes.create !cap in
      Bytes.blit w.buf 0 buf 0 w.len;
      w.buf <- buf
    end

  let put_char w c =
    ensure w 1;
    Bytes.unsafe_set w.buf w.len c;
    w.len <- w.len + 1

  let put_int64_be w v =
    ensure w 8;
    Bytes.set_int64_be w.buf w.len v;
    w.len <- w.len + 8

  (* Zigzag over int64 so 63-bit OCaml ints of either sign stay total;
     small non-negative values (heights, hops, ids) cost one byte.
     When |n| < 2^61 the zigzag fits the native int, so the common case
     (every id, height, hop and count) runs without boxing a single
     Int64 — byte-identical to the general path, which only the
     outermost 1/4 of the int range ever reaches. *)
  let add_varint_slow b n =
    let v = Int64.of_int n in
    let z = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63) in
    let rec go z =
      let low = Int64.to_int (Int64.logand z 0x7FL) in
      let rest = Int64.shift_right_logical z 7 in
      if Int64.equal rest 0L then put_char b (Char.chr low)
      else begin
        put_char b (Char.chr (low lor 0x80));
        go rest
      end
    in
    go z

  let add_varint b n =
    if n >= -0x1000_0000_0000_0000 && n < 0x1000_0000_0000_0000 then begin
      let z = ref ((n lsl 1) lxor (n asr 62)) in
      while !z lsr 7 <> 0 do
        put_char b (Char.unsafe_chr ((!z land 0x7F) lor 0x80));
        z := !z lsr 7
      done;
      put_char b (Char.unsafe_chr !z)
    end
    else add_varint_slow b n

  let read_byte s pos =
    if !pos >= String.length s then err "truncated at byte %d" !pos;
    let c = Char.code s.[!pos] in
    incr pos;
    c

  let read_varint s pos =
    let rec go shift acc =
      if shift > 63 then err "varint overflow at byte %d" !pos;
      let c = read_byte s pos in
      let acc =
        Int64.logor acc (Int64.shift_left (Int64.of_int (c land 0x7F)) shift)
      in
      if c land 0x80 <> 0 then go (shift + 7) acc else acc
    in
    let z = go 0 0L in
    Int64.to_int
      (Int64.logxor
         (Int64.shift_right_logical z 1)
         (Int64.neg (Int64.logand z 1L)))

  let add_float b f = put_int64_be b (Int64.bits_of_float f)

  let read_float s pos =
    if !pos + 8 > String.length s then err "truncated float at byte %d" !pos;
    let v = Int64.float_of_bits (String.get_int64_be s !pos) in
    pos := !pos + 8;
    v

  let add_bool b v = put_char b (if v then '\001' else '\000')

  let read_bool s pos =
    match read_byte s pos with
    | 0 -> false
    | 1 -> true
    | c -> err "bad bool byte %d" c

  let add_id b id = add_varint b (id : Node_id.t)
  let read_id s pos : Node_id.t = read_varint s pos

  (* Remaining bytes bound collection counts: every element costs at
     least one byte, so a hostile count cannot force an allocation
     larger than the frame itself. *)
  let read_count what s pos =
    let n = read_varint s pos in
    if n < 0 || n > String.length s - !pos then
      err "bad %s count %d at byte %d" what n !pos;
    n

  let add_rect b r =
    let d = Geometry.Rect.dims r in
    add_varint b d;
    for i = 0 to d - 1 do
      add_float b (Geometry.Rect.low r i)
    done;
    for i = 0 to d - 1 do
      add_float b (Geometry.Rect.high r i)
    done

  let read_rect s pos =
    let d = read_varint s pos in
    if d < 1 || d > (String.length s - !pos) / 8 then
      err "bad rect dimensionality %d" d;
    let low = Array.init d (fun _ -> read_float s pos) in
    let high = Array.init d (fun _ -> read_float s pos) in
    (* Rect.make re-validates the invariant (no NaN, low <= high). *)
    Geometry.Rect.make ~low ~high

  let add_point b p =
    let d = Geometry.Point.dims p in
    add_varint b d;
    for i = 0 to d - 1 do
      add_float b (Geometry.Point.coord p i)
    done

  let read_point s pos =
    let d = read_varint s pos in
    if d < 1 || d > (String.length s - !pos) / 8 then
      err "bad point dimensionality %d" d;
    Geometry.Point.make (Array.init d (fun _ -> read_float s pos))

  let add_id_set b set =
    add_varint b (Node_id.Set.cardinal set);
    Node_id.Set.iter (fun id -> add_id b id) set

  let read_id_set s pos =
    let n = read_count "children set" s pos in
    let rec go acc k =
      if k = 0 then acc else go (Node_id.Set.add (read_id s pos) acc) (k - 1)
    in
    go Node_id.Set.empty n

  let add_id_option b = function
    | None -> add_bool b false
    | Some id ->
        add_bool b true;
        add_id b id

  let read_id_option s pos =
    if read_bool s pos then Some (read_id s pos) else None

  let add_level b (l : level_snapshot) =
    add_varint b l.height;
    add_rect b l.mbr;
    add_id b l.parent;
    add_id_set b l.children

  let read_level s pos =
    let height = read_varint s pos in
    let mbr = read_rect s pos in
    let parent = read_id s pos in
    let children = read_id_set s pos in
    { height; mbr; parent; children }

  let add_snapshot b (snap : snapshot) =
    add_id b snap.responder;
    add_varint b snap.top;
    add_rect b snap.filter;
    add_varint b (List.length snap.levels);
    List.iter (add_level b) snap.levels

  let read_snapshot s pos =
    let responder = read_id s pos in
    let top = read_varint s pos in
    let filter = read_rect s pos in
    let n = read_count "snapshot level" s pos in
    let levels = List.init n (fun _ -> read_level s pos) in
    { responder; top; filter; levels }

  let agg_fn_byte = function
    | Count -> 0
    | Sum -> 1
    | Min -> 2
    | Max -> 3
    | Avg -> 4

  let agg_fn_of_byte = function
    | 0 -> Count
    | 1 -> Sum
    | 2 -> Min
    | 3 -> Max
    | 4 -> Avg
    | c -> err "bad aggregate function byte %d" c

  let add_partial b (p : agg_partial) =
    add_varint b p.a_count;
    add_float b p.a_sum;
    add_float b p.a_min;
    add_float b p.a_max

  let read_partial s pos =
    let a_count = read_varint s pos in
    let a_sum = read_float s pos in
    let a_min = read_float s pos in
    let a_max = read_float s pos in
    { a_count; a_sum; a_min; a_max }

  let add_query b (q : agg_query) =
    add_varint b q.query_id;
    add_rect b q.q_rect;
    put_char b (Char.chr (agg_fn_byte q.q_fn));
    add_float b q.q_tct;
    add_id b q.q_owner

  let read_query s pos =
    let query_id = read_varint s pos in
    let q_rect = read_rect s pos in
    let q_fn = agg_fn_of_byte (read_byte s pos) in
    let q_tct = read_float s pos in
    let q_owner = read_id s pos in
    { query_id; q_rect; q_fn; q_tct; q_owner }

  let add_payload b = function
    | Query { asker } -> add_id b asker
    | Report { snapshot } -> add_snapshot b snapshot
    | Join { joiner; mbr; height; phase; hops } ->
        add_id b joiner;
        add_rect b mbr;
        add_varint b height;
        (match phase with
        | `Up -> add_bool b false
        | `Down at ->
            add_bool b true;
            add_varint b at);
        add_varint b hops
    | Add_child { child; mbr; height; hops } ->
        add_id b child;
        add_rect b mbr;
        add_varint b height;
        add_varint b hops
    | Leave { who; height } ->
        add_id b who;
        add_varint b height
    | Check_mbr h | Check_parent h | Check_children h | Check_cover h
    | Check_structure h | Cover_sweep h | Initiate_new_connection h ->
        add_varint b h
    | Publish { event_id; point; at; from_child; going_up; hops } ->
        add_varint b event_id;
        add_point b point;
        add_varint b at;
        add_id_option b from_child;
        add_bool b going_up;
        add_varint b hops
    | Agg_subscribe { query; hops } ->
        add_query b query;
        add_varint b hops
    | Agg_partial { query_id; epoch; child; at; partial } ->
        add_varint b query_id;
        add_varint b epoch;
        add_id b child;
        add_varint b at;
        add_partial b partial
    | Agg_result { query_id; epoch; value } ->
        add_varint b query_id;
        add_varint b epoch;
        (match value with
        | None -> add_bool b false
        | Some v ->
            add_bool b true;
            add_float b v)
    | Agg_merge { query_id; epoch; shard; partial } ->
        add_varint b query_id;
        add_varint b epoch;
        add_varint b shard;
        add_partial b partial
    | Heartbeat { from; seq } ->
        add_id b from;
        add_varint b seq
    | Suspect { suspect; by; seq } ->
        add_id b suspect;
        add_id b by;
        add_varint b seq

  let read_body s pos =
    match read_byte s pos with
    | 0 -> Query { asker = read_id s pos }
    | 1 -> Report { snapshot = read_snapshot s pos }
    | 2 ->
        let joiner = read_id s pos in
        let mbr = read_rect s pos in
        let height = read_varint s pos in
        let phase =
          if read_bool s pos then `Down (read_varint s pos) else `Up
        in
        let hops = read_varint s pos in
        Join { joiner; mbr; height; phase; hops }
    | 3 ->
        let child = read_id s pos in
        let mbr = read_rect s pos in
        let height = read_varint s pos in
        let hops = read_varint s pos in
        Add_child { child; mbr; height; hops }
    | 4 ->
        let who = read_id s pos in
        let height = read_varint s pos in
        Leave { who; height }
    | 5 -> Check_mbr (read_varint s pos)
    | 6 -> Check_parent (read_varint s pos)
    | 7 -> Check_children (read_varint s pos)
    | 8 -> Check_cover (read_varint s pos)
    | 9 -> Check_structure (read_varint s pos)
    | 10 -> Cover_sweep (read_varint s pos)
    | 11 -> Initiate_new_connection (read_varint s pos)
    | 12 ->
        let event_id = read_varint s pos in
        let point = read_point s pos in
        let at = read_varint s pos in
        let from_child = read_id_option s pos in
        let going_up = read_bool s pos in
        let hops = read_varint s pos in
        Publish { event_id; point; at; from_child; going_up; hops }
    | 13 ->
        let query = read_query s pos in
        let hops = read_varint s pos in
        Agg_subscribe { query; hops }
    | 14 ->
        let query_id = read_varint s pos in
        let epoch = read_varint s pos in
        let child = read_id s pos in
        let at = read_varint s pos in
        let partial = read_partial s pos in
        Agg_partial { query_id; epoch; child; at; partial }
    | 15 ->
        let query_id = read_varint s pos in
        let epoch = read_varint s pos in
        let value =
          if read_bool s pos then Some (read_float s pos) else None
        in
        Agg_result { query_id; epoch; value }
    | 16 ->
        let from = read_id s pos in
        let seq = read_varint s pos in
        Heartbeat { from; seq }
    | 17 ->
        let suspect = read_id s pos in
        let by = read_id s pos in
        let seq = read_varint s pos in
        Suspect { suspect; by; seq }
    | 18 ->
        let query_id = read_varint s pos in
        let epoch = read_varint s pos in
        let shard = read_varint s pos in
        let partial = read_partial s pos in
        Agg_merge { query_id; epoch; shard; partial }
    | t -> err "unknown message tag %d" t

  let encode msg =
    let w = scratch in
    w.len <- 0;
    ensure w 4;
    w.len <- 4 (* length-prefix placeholder, patched below *);
    put_char w (Char.unsafe_chr (kind_code msg));
    add_payload w msg;
    Bytes.set_int32_be w.buf 0 (Int32.of_int (w.len - 4));
    Bytes.sub_string w.buf 0 w.len

  let decode s =
    try
      if String.length s < 4 then err "frame shorter than its length prefix";
      let n = Int32.to_int (String.get_int32_be s 0) in
      if n < 0 || n <> String.length s - 4 then
        err "length prefix %d does not match body of %d bytes" n
          (String.length s - 4);
      let pos = ref 4 in
      let msg = read_body s pos in
      if !pos <> String.length s then
        err "%d trailing byte(s) after %s" (String.length s - !pos) (tag msg);
      Ok msg
    with
    | Bad e -> Error e
    | Invalid_argument e -> Error ("malformed payload: " ^ e)

  let encoded_size msg = String.length (encode msg)

  let transport = Sim.Transport.wire { Sim.Transport.encode; decode }
end

let pp ppf = function
  | Query { asker } -> Format.fprintf ppf "QUERY(from %a)" Node_id.pp asker
  | Report { snapshot } ->
      Format.fprintf ppf "REPORT(%a,top=%d)" Node_id.pp snapshot.responder
        snapshot.top
  | Join { joiner; height; phase; hops; _ } ->
      Format.fprintf ppf "JOIN(%a,h%d,%s,hops=%d)" Node_id.pp joiner height
        (match phase with `Up -> "up" | `Down at -> "down@" ^ string_of_int at)
        hops
  | Add_child { child; height; hops; _ } ->
      Format.fprintf ppf "ADD_CHILD(%a,h%d,hops=%d)" Node_id.pp child height hops
  | Leave { who; height } ->
      Format.fprintf ppf "LEAVE(%a,h%d)" Node_id.pp who height
  | Check_mbr h -> Format.fprintf ppf "CHECK_MBR(h%d)" h
  | Check_parent h -> Format.fprintf ppf "CHECK_PARENT(h%d)" h
  | Check_children h -> Format.fprintf ppf "CHECK_CHILDREN(h%d)" h
  | Check_cover h -> Format.fprintf ppf "CHECK_COVER(h%d)" h
  | Check_structure h -> Format.fprintf ppf "CHECK_STRUCTURE(h%d)" h
  | Cover_sweep h -> Format.fprintf ppf "COVER_SWEEP(h%d)" h
  | Initiate_new_connection h ->
      Format.fprintf ppf "INITIATE_NEW_CONNECTION(h%d)" h
  | Publish { event_id; at; going_up; hops; _ } ->
      Format.fprintf ppf "PUBLISH(e%d,h%d,%s,hops=%d)" event_id at
        (if going_up then "up" else "down")
        hops
  | Agg_subscribe { query; hops } ->
      Format.fprintf ppf "AGG_SUBSCRIBE(q%d,%s,tct=%g,hops=%d)" query.query_id
        (agg_fn_to_string query.q_fn)
        query.q_tct hops
  | Agg_partial { query_id; epoch; child; at; partial } ->
      Format.fprintf ppf "AGG_PARTIAL(q%d,e%d,from %a,h%d,n=%d)" query_id epoch
        Node_id.pp child at partial.a_count
  | Agg_result { query_id; epoch; value } ->
      Format.fprintf ppf "AGG_RESULT(q%d,e%d,%s)" query_id epoch
        (match value with None -> "none" | Some v -> Format.sprintf "%g" v)
  | Agg_merge { query_id; epoch; shard; partial } ->
      Format.fprintf ppf "AGG_MERGE(q%d,e%d,shard %d,n=%d)" query_id epoch
        shard partial.a_count
  | Heartbeat { from; seq } ->
      Format.fprintf ppf "HEARTBEAT(from %a,seq=%d)" Node_id.pp from seq
  | Suspect { suspect; by; seq } ->
      Format.fprintf ppf "SUSPECT(%a,by %a,seq=%d)" Node_id.pp suspect
        Node_id.pp by seq
