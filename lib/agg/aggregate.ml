type fn = Drtree.Message.agg_fn = Count | Sum | Min | Max | Avg

let all_fns = [ Count; Sum; Min; Max; Avg ]
let fn_to_string = Drtree.Message.agg_fn_to_string

type t = Drtree.Message.agg_partial = {
  a_count : int;
  a_sum : float;
  a_min : float;
  a_max : float;
}

let identity = { a_count = 0; a_sum = 0.0; a_min = infinity; a_max = neg_infinity }
let of_value v = { a_count = 1; a_sum = v; a_min = v; a_max = v }
let is_empty t = t.a_count = 0

let merge a b =
  {
    a_count = a.a_count + b.a_count;
    a_sum = a.a_sum +. b.a_sum;
    a_min = Float.min a.a_min b.a_min;
    a_max = Float.max a.a_max b.a_max;
  }

let finalize fn t =
  match fn with
  | Count -> Some (float_of_int t.a_count)
  | Sum -> Some t.a_sum
  | Min -> if is_empty t then None else Some t.a_min
  | Max -> if is_empty t then None else Some t.a_max
  | Avg -> if is_empty t then None else Some (t.a_sum /. float_of_int t.a_count)

let equal a b =
  a.a_count = b.a_count && a.a_sum = b.a_sum && a.a_min = b.a_min
  && a.a_max = b.a_max

(* Component-wise distance. [x = y] is tested first so the empty
   sentinels compare at distance 0 (inf - inf would be nan). *)
let delta a b =
  let d x y = if x = y then 0.0 else abs_float (x -. y) in
  let dc = d (float_of_int a.a_count) (float_of_int b.a_count) in
  Float.max dc
    (Float.max (d a.a_sum b.a_sum)
       (Float.max (d a.a_min b.a_min) (d a.a_max b.a_max)))

let pp ppf t =
  if is_empty t then Format.pp_print_string ppf "{empty}"
  else
    Format.fprintf ppf "{n=%d sum=%g min=%g max=%g}" t.a_count t.a_sum t.a_min
      t.a_max
