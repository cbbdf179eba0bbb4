module R = Geometry.Rect
module P = Geometry.Point

type mode = Shared | Message_passing

let mode_to_string = function Shared -> "shared" | Message_passing -> "mp"

let mode_of_string = function
  | "shared" -> Ok Shared
  | "mp" -> Ok Message_passing
  | s -> Error (Printf.sprintf "unknown mode %S" s)

type transport = Inproc | Wire

let transport_to_string = function Inproc -> "inproc" | Wire -> "wire"

let transport_of_string = function
  | "inproc" -> Ok Inproc
  | "wire" -> Ok Wire
  | s -> Error (Printf.sprintf "unknown transport %S" s)

type op =
  | Join of R.t
  | Leave of int
  | Crash of int
  | Corrupt of int * int
  | Publish of P.t
  | Stabilize of int
  | Agg_query of Drtree.Message.agg_fn * R.t

type t = {
  seed : int;
  mode : mode;
  transport : transport;
  sched : Schedule.kind;
  drop : float;
  dup : float;
  config : Drtree.Config.t;
  prelude : R.t list;
  ops : op list;
}

let pp_op ppf = function
  | Join r -> Format.fprintf ppf "join %a" R.pp r
  | Leave i -> Format.fprintf ppf "leave #%d" i
  | Crash i -> Format.fprintf ppf "crash #%d" i
  | Corrupt (i, s) -> Format.fprintf ppf "corrupt #%d seed=%d" i s
  | Publish p -> Format.fprintf ppf "publish %a" P.pp p
  | Stabilize k -> Format.fprintf ppf "stabilize %d" k
  | Agg_query (fn, r) ->
      Format.fprintf ppf "agg %s over %a"
        (Drtree.Message.agg_fn_to_string fn)
        R.pp r

let pp ppf t =
  Format.fprintf ppf
    "@[<v>seed=%d mode=%s transport=%s sched=%a drop=%g dup=%g@,\
     config %a@,prelude (%d joins):@,%a@,ops (%d):@,%a@]"
    t.seed (mode_to_string t.mode)
    (transport_to_string t.transport)
    Schedule.pp_kind t.sched t.drop t.dup Drtree.Config.pp t.config
    (List.length t.prelude)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf r ->
         Format.fprintf ppf "  join %a" R.pp r))
    t.prelude (List.length t.ops)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf o ->
         Format.fprintf ppf "  %a" pp_op o))
    t.ops

(* {2 Codec}

   Line-oriented text so counterexamples in repro/ are diffable and
   hand-editable. Floats print with %.17g, and the config line with
   Config.to_string's exact form, so both round-trip exactly. *)

let header = "drtree-trace v2"

let float_str f = Printf.sprintf "%.17g" f

let floats_str a =
  String.concat " " (Array.to_list (Array.map float_str a))

let rect_str r = Printf.sprintf "%d %s %s" (R.dims r) (floats_str (R.lows r)) (floats_str (R.highs r))

let point_str p = Printf.sprintf "%d %s" (P.dims p) (floats_str (P.coords p))

let op_str = function
  | Join r -> "op join " ^ rect_str r
  | Leave i -> Printf.sprintf "op leave %d" i
  | Crash i -> Printf.sprintf "op crash %d" i
  | Corrupt (i, s) -> Printf.sprintf "op corrupt %d %d" i s
  | Publish p -> "op publish " ^ point_str p
  | Stabilize k -> Printf.sprintf "op stabilize %d" k
  | Agg_query (fn, r) ->
      Printf.sprintf "op agg %s %s" (Drtree.Message.agg_fn_to_string fn)
        (rect_str r)

let to_string t =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "%s" header;
  line "seed %d" t.seed;
  line "mode %s" (mode_to_string t.mode);
  line "transport %s" (transport_to_string t.transport);
  line "sched %s" (Schedule.kind_to_string t.sched);
  line "drop %s" (float_str t.drop);
  line "dup %s" (float_str t.dup);
  line "config %s" (Drtree.Config.to_string t.config);
  List.iter (fun r -> line "prelude %s" (rect_str r)) t.prelude;
  List.iter (fun o -> line "%s" (op_str o)) t.ops;
  line "end";
  Buffer.contents b

let default =
  {
    seed = 1;
    mode = Shared;
    transport = Inproc;
    sched = Schedule.Fifo;
    drop = 0.0;
    dup = 0.0;
    config = Drtree.Config.default;
    prelude = [];
    ops = [];
  }

exception Parse of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

let int_of ctx s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "%s: bad integer %S" ctx s

let float_of ctx s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "%s: bad float %S" ctx s

let parse_rect ctx = function
  | dims :: rest ->
      let d = int_of ctx dims in
      if List.length rest <> 2 * d then
        fail "%s: expected %d coordinates, got %d" ctx (2 * d)
          (List.length rest);
      let coords = Array.of_list (List.map (float_of ctx) rest) in
      R.make ~low:(Array.sub coords 0 d) ~high:(Array.sub coords d d)
  | [] -> fail "%s: missing rectangle" ctx

let parse_point ctx = function
  | dims :: rest ->
      let d = int_of ctx dims in
      if List.length rest <> d then
        fail "%s: expected %d coordinates, got %d" ctx d (List.length rest);
      P.make (Array.of_list (List.map (float_of ctx) rest))
  | [] -> fail "%s: missing point" ctx

let parse_op ctx = function
  | "join" :: rest -> Join (parse_rect ctx rest)
  | [ "leave"; i ] -> Leave (int_of ctx i)
  | [ "crash"; i ] -> Crash (int_of ctx i)
  | [ "corrupt"; i; s ] -> Corrupt (int_of ctx i, int_of ctx s)
  | "publish" :: rest -> Publish (parse_point ctx rest)
  | [ "stabilize"; k ] -> Stabilize (int_of ctx k)
  | "agg" :: fn :: rest -> (
      match Drtree.Message.agg_fn_of_string fn with
      | Some fn -> Agg_query (fn, parse_rect ctx rest)
      | None -> fail "%s: unknown aggregate function %S" ctx fn)
  | w :: _ -> fail "%s: unknown op %S" ctx w
  | [] -> fail "%s: empty op" ctx

let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  try
    match lines with
    | [] -> Error "empty trace"
    | h :: rest when h = header ->
        let t = ref default and prelude = ref [] and ops = ref [] in
        List.iteri
          (fun n line ->
            let ctx = Printf.sprintf "line %d" (n + 2) in
            match words line with
            | [ "seed"; v ] -> t := { !t with seed = int_of ctx v }
            | [ "mode"; v ] -> (
                match mode_of_string v with
                | Ok m -> t := { !t with mode = m }
                | Error e -> fail "%s: %s" ctx e)
            | [ "transport"; v ] -> (
                match transport_of_string v with
                | Ok tr -> t := { !t with transport = tr }
                | Error e -> fail "%s: %s" ctx e)
            | [ "sched"; v ] -> (
                match Schedule.kind_of_string v with
                | Ok k -> t := { !t with sched = k }
                | Error e -> fail "%s: %s" ctx e)
            | [ "drop"; v ] -> t := { !t with drop = float_of ctx v }
            | [ "dup"; v ] -> t := { !t with dup = float_of ctx v }
            | "config" :: kvs -> (
                match Drtree.Config.of_string (String.concat " " kvs) with
                | Ok c -> t := { !t with config = c }
                | Error e -> fail "%s: %s" ctx e)
            | "prelude" :: rest -> prelude := parse_rect ctx rest :: !prelude
            | "op" :: rest -> ops := parse_op ctx rest :: !ops
            | [ "end" ] -> ()
            | w :: _ -> fail "%s: unknown directive %S" ctx w
            | [] -> ())
          rest;
        Ok { !t with prelude = List.rev !prelude; ops = List.rev !ops }
    | h :: _ -> Error (Printf.sprintf "bad header %S (expected %S)" h header)
  with Parse e -> Error e

let save file t =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load file =
  match
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error e -> Error e
