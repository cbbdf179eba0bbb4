type oracle = Root_oracle | Random_oracle
type layout = Hashed | Flat

type detector =
  | Oracle
  | Heartbeat of { period : float; timeout_factor : int; fallbacks : int }

let default_heartbeat =
  Heartbeat { period = 1.0; timeout_factor = 3; fallbacks = 2 }

type forest = Single | Sharded of { shards : int }

let max_shards = 4096

type t = {
  min_fill : int;
  max_fill : int;
  split : Rtree.Split.kind;
  oracle : oracle;
  cover_sweep : bool;
  publish_ttl : int;
  seen_capacity : int;
  layout : layout;
  detector : detector;
  forest : forest;
}

let default =
  { min_fill = 2; max_fill = 4; split = Rtree.Split.Quadratic;
    oracle = Root_oracle; cover_sweep = true; publish_ttl = 128;
    seen_capacity = 4096; layout = Flat; detector = Oracle; forest = Single }

let validate c =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if c.min_fill < 2 then err "min-fill %d < 2" c.min_fill
  else if c.max_fill < 2 * c.min_fill then
    err "max-fill %d < 2 * min-fill %d" c.max_fill c.min_fill
  else if c.publish_ttl < 1 then err "publish-ttl %d < 1" c.publish_ttl
  else if c.seen_capacity < 1 then err "seen-capacity %d < 1" c.seen_capacity
  else
    match (c.detector, c.forest) with
    | Heartbeat { period; _ }, _ when not (period > 0.0) ->
        err "heartbeat period %g <= 0" period
    | Heartbeat { timeout_factor; _ }, _ when timeout_factor < 1 ->
        err "heartbeat timeout factor %d < 1" timeout_factor
    | Heartbeat { fallbacks; _ }, _ when fallbacks < 0 ->
        err "heartbeat fallbacks %d < 0" fallbacks
    | _, Sharded { shards } when shards < 1 || shards > max_shards ->
        err "shards %d outside 1..%d" shards max_shards
    | _ -> Ok c

let make ?(min_fill = default.min_fill) ?(max_fill = default.max_fill)
    ?(split = default.split) ?(oracle = default.oracle)
    ?(cover_sweep = default.cover_sweep)
    ?(publish_ttl = default.publish_ttl)
    ?(seen_capacity = default.seen_capacity)
    ?(layout = default.layout) ?(detector = default.detector) ?(forest = default.forest) () =
  match
    validate
      { min_fill; max_fill; split; oracle; cover_sweep; publish_ttl;
        seen_capacity; layout; detector; forest }
  with
  | Ok c -> c
  | Error e -> invalid_arg ("Drtree.Config.make: " ^ e)

(* {2 The knob table} *)

type field = {
  name : string;
  docv : string;
  doc : string;
  print : t -> string;
  parse : string -> (t -> t, string) result;
}

(* The shortest %g form that re-reads as the same float. *)
let float_str f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  go 1

let bad what s = Error (Printf.sprintf "bad %s %S" what s)

let scalar_field docv to_s of_s name doc get set =
  { name; docv; doc;
    print = (fun c -> to_s (get c));
    parse =
      (fun s -> match of_s s with Some v -> Ok (set v) | None -> bad name s) }

let int_field = scalar_field "INT" string_of_int int_of_string_opt

(* [cases] lists every value with its text, so printing is total. *)
let enum_field name doc cases get set =
  { name; docv = String.concat "|" (List.map fst cases); doc;
    print = (fun c -> fst (List.find (fun (_, v) -> v = get c) cases));
    parse =
      (fun s ->
        match List.assoc_opt s cases with
        | Some v -> Ok (set v)
        | None -> Error (Printf.sprintf "unknown %s %S" name s)) }

let detector_field =
  { name = "detector"; docv = "oracle|heartbeat[:P:T:K]";
    doc =
      "Failure detector: oracle (crashes are known: the paper's model) or \
       heartbeat:P:T:K (each process heartbeats its tree neighbours plus K \
       fallback-ring contacts every P time units; a peer silent for T \
       periods is suspected, challenged, and then confirmed dead and \
       evicted locally). Bare heartbeat means heartbeat:1:3:2.";
    print =
      (fun c ->
        match c.detector with
        | Oracle -> "oracle"
        | Heartbeat { period; timeout_factor; fallbacks } ->
            Printf.sprintf "heartbeat:%s:%d:%d" (float_str period)
              timeout_factor fallbacks);
    parse =
      (fun s ->
        let set detector c = { c with detector } in
        match String.split_on_char ':' s with
        | [ "oracle" ] -> Ok (set Oracle)
        | [ "heartbeat" ] -> Ok (set default_heartbeat)
        | [ "heartbeat"; p; tf; k ] -> (
            match
              (float_of_string_opt p, int_of_string_opt tf, int_of_string_opt k)
            with
            | Some period, Some timeout_factor, Some fallbacks ->
                Ok (set (Heartbeat { period; timeout_factor; fallbacks }))
            | _ -> bad "heartbeat detector" s)
        | _ -> Error (Printf.sprintf "unknown detector %S" s)) }

let forest_field =
  { name = "forest"; docv = "single|sharded:K";
    doc =
      "Rendezvous forest: single (one global DR-tree: the paper's model) or \
       sharded:K (Z-order-partition the space into K independent DR-trees, \
       each with its own designated root, election scope and repair sweep; \
       events fan out to every other shard root whose MBR contains them). \
       A bare K means sharded:K.";
    print =
      (fun c ->
        match c.forest with
        | Single -> "single"
        | Sharded { shards } -> Printf.sprintf "sharded:%d" shards);
    parse =
      (fun s ->
        let sharded k =
          match int_of_string_opt k with
          | Some shards -> Ok (fun c -> { c with forest = Sharded { shards } })
          | None -> bad "forest" s
        in
        match String.split_on_char ':' s with
        | [ "single" ] -> Ok (fun c -> { c with forest = Single })
        | [ "sharded"; k ] | [ k ] -> sharded k
        | _ -> bad "forest" s) }

let fields =
  [
    int_field "min-fill" "Minimum children per node (m)." (fun c -> c.min_fill)
      (fun min_fill c -> { c with min_fill });
    int_field "max-fill" "Maximum children per node (M, at least 2m)."
      (fun c -> c.max_fill)
      (fun max_fill c -> { c with max_fill });
    scalar_field "linear|quadratic|rstar" Rtree.Split.kind_to_string
      Rtree.Split.kind_of_string "split" "Children-set split policy."
      (fun c -> c.split)
      (fun split c -> { c with split });
    enum_field "oracle" "Join contact: the current root or a random live node."
      [ ("root", Root_oracle); ("random", Random_oracle) ]
      (fun c -> c.oracle)
      (fun oracle c -> { c with oracle });
    enum_field "cover-sweep"
      "Post-join/leave cover sweep; off plants a known protocol bug the \
       fuzzer must find."
      [ ("on", true); ("off", false) ]
      (fun c -> c.cover_sweep)
      (fun cover_sweep c -> { c with cover_sweep });
    int_field "publish-ttl" "Hop budget for forwarded traffic."
      (fun c -> c.publish_ttl)
      (fun publish_ttl c -> { c with publish_ttl });
    int_field "seen-capacity" "Per-process event-dedup window."
      (fun c -> c.seen_capacity)
      (fun seen_capacity c -> { c with seen_capacity });
    enum_field "layout"
      "State-store layout: flat (arrays over an interned id space) or hashed \
       (per-process hashtables; the layout differential's reference)."
      [ ("hashed", Hashed); ("flat", Flat) ]
      (fun c -> c.layout)
      (fun layout c -> { c with layout });
    detector_field;
    forest_field;
  ]

let to_string c =
  String.concat " " (List.map (fun f -> f.name ^ "=" ^ f.print c) fields)

let of_string s =
  let assign c word =
    match String.index_opt word '=' with
    | None -> Error (Printf.sprintf "expected name=value, got %S" word)
    | Some i -> (
        let name = String.sub word 0 i
        and value = String.sub word (i + 1) (String.length word - i - 1) in
        match List.find_opt (fun f -> f.name = name) fields with
        | None -> Error (Printf.sprintf "unknown config key %S" name)
        | Some f -> Result.map (fun set -> set c) (f.parse value))
  in
  String.split_on_char ' ' s
  |> List.filter (( <> ) "")
  |> List.fold_left
       (fun acc w -> Result.bind acc (fun c -> assign c w))
       (Ok default)
  |> Fun.flip Result.bind validate

let pp ppf c = Format.pp_print_string ppf (to_string c)
