type oracle = Root_oracle | Random_oracle
type scheduler = Full_sweep | Incremental

let scheduler_to_string = function
  | Full_sweep -> "full"
  | Incremental -> "incremental"

let scheduler_of_string = function
  | "full" -> Ok Full_sweep
  | "incremental" -> Ok Incremental
  | s -> Error (Printf.sprintf "unknown scheduler %S" s)

type layout = Hashed | Flat

let layout_to_string = function Hashed -> "hashed" | Flat -> "flat"

let layout_of_string = function
  | "hashed" -> Ok Hashed
  | "flat" -> Ok Flat
  | s -> Error (Printf.sprintf "unknown layout %S" s)

type detector =
  | Oracle
  | Heartbeat of { period : float; timeout_factor : int; fallbacks : int }

let detector_to_string = function
  | Oracle -> "oracle"
  | Heartbeat { period; timeout_factor; fallbacks } ->
      Printf.sprintf "heartbeat:%g:%d:%d" period timeout_factor fallbacks

let default_heartbeat =
  Heartbeat { period = 1.0; timeout_factor = 3; fallbacks = 2 }

let detector_of_string s =
  match s with
  | "oracle" -> Ok Oracle
  | "heartbeat" -> Ok default_heartbeat
  | s -> (
      match String.split_on_char ':' s with
      | [ "heartbeat"; p; tf; k ] -> (
          match
            (float_of_string_opt p, int_of_string_opt tf, int_of_string_opt k)
          with
          | Some period, Some timeout_factor, Some fallbacks
            when period > 0.0 && timeout_factor >= 1 && fallbacks >= 0 ->
              Ok (Heartbeat { period; timeout_factor; fallbacks })
          | _ -> Error (Printf.sprintf "bad heartbeat detector spec %S" s))
      | _ -> Error (Printf.sprintf "unknown detector %S" s))

type forest = Single | Sharded of { shards : int }

let forest_to_string = function
  | Single -> "single"
  | Sharded { shards } -> Printf.sprintf "sharded:%d" shards

let max_shards = 4096

let forest_of_string s =
  match s with
  | "single" -> Ok Single
  | s -> (
      match String.split_on_char ':' s with
      | [ "sharded"; k ] -> (
          match int_of_string_opt k with
          | Some shards when shards >= 1 && shards <= max_shards ->
              Ok (Sharded { shards })
          | Some _ | None -> Error (Printf.sprintf "bad forest spec %S" s))
      | _ -> Error (Printf.sprintf "unknown forest %S" s))

type t = {
  min_fill : int;
  max_fill : int;
  split : Rtree.Split.kind;
  oracle : oracle;
  cover_sweep : bool;
  publish_ttl : int;
  scheduler : scheduler;
  scan_fraction : float;
  seen_capacity : int;
  layout : layout;
  detector : detector;
  forest : forest;
}

let default =
  { min_fill = 2; max_fill = 4; split = Rtree.Split.Quadratic;
    oracle = Root_oracle; cover_sweep = true; publish_ttl = 128;
    scheduler = Full_sweep; scan_fraction = 0.05; seen_capacity = 4096;
    layout = Flat; detector = Oracle; forest = Single }

let make ?(min_fill = default.min_fill) ?(max_fill = default.max_fill)
    ?(split = default.split) ?(oracle = default.oracle)
    ?(cover_sweep = default.cover_sweep)
    ?(publish_ttl = default.publish_ttl)
    ?(scheduler = default.scheduler)
    ?(scan_fraction = default.scan_fraction)
    ?(seen_capacity = default.seen_capacity)
    ?(layout = default.layout) ?(detector = default.detector) ?(forest = default.forest) () =
  if min_fill < 2 then invalid_arg "Drtree.Config.make: min_fill < 2";
  if max_fill < 2 * min_fill then
    invalid_arg "Drtree.Config.make: max_fill < 2 * min_fill";
  if publish_ttl < 1 then invalid_arg "Drtree.Config.make: publish_ttl < 1";
  if not (scan_fraction >= 0.0 && scan_fraction <= 1.0) then
    invalid_arg "Drtree.Config.make: scan_fraction outside [0, 1]";
  if seen_capacity < 1 then
    invalid_arg "Drtree.Config.make: seen_capacity < 1";
  (match detector with
  | Oracle -> ()
  | Heartbeat { period; timeout_factor; fallbacks } ->
      if not (period > 0.0) then
        invalid_arg "Drtree.Config.make: heartbeat period <= 0";
      if timeout_factor < 1 then
        invalid_arg "Drtree.Config.make: heartbeat timeout_factor < 1";
      if fallbacks < 0 then
        invalid_arg "Drtree.Config.make: heartbeat fallbacks < 0");
  (match forest with
  | Single -> ()
  | Sharded { shards } ->
      if shards < 1 || shards > max_shards then
        invalid_arg
          (Printf.sprintf "Drtree.Config.make: shards outside 1..%d"
             max_shards));
  { min_fill; max_fill; split; oracle; cover_sweep; publish_ttl; scheduler;
    scan_fraction; seen_capacity; layout; detector; forest }

let pp ppf c =
  Format.fprintf ppf "m=%d M=%d split=%a oracle=%s ttl=%d%s%s%s%s%s" c.min_fill
    c.max_fill Rtree.Split.pp_kind c.split
    (match c.oracle with Root_oracle -> "root" | Random_oracle -> "random")
    c.publish_ttl
    (match c.scheduler with
    | Full_sweep -> ""
    | Incremental ->
        Printf.sprintf " sched=incremental(scan=%g)" c.scan_fraction)
    (match c.layout with Flat -> "" | Hashed -> " layout=hashed")
    (match c.detector with
    | Oracle -> ""
    | Heartbeat _ ->
        Printf.sprintf " detector=%s" (detector_to_string c.detector))
    (match c.forest with
    | Single -> ""
    | Sharded _ -> Printf.sprintf " forest=%s" (forest_to_string c.forest))
    (if c.cover_sweep then "" else " [cover-sweep DISABLED]")
