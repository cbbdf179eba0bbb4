(* One flat float array: the [n] low bounds, then the [n] high bounds.
   A rectangle is a single unboxed block, so unions, areas and MBR
   reads touch one allocation instead of a record and two arrays. *)
type t = float array

let dims r = Array.length r / 2

let check name lo hi =
  let n = Array.length lo in
  if n = 0 then invalid_arg (name ^ ": empty bounds");
  if Array.length hi <> n then invalid_arg (name ^ ": bound lengths differ");
  for i = 0 to n - 1 do
    if Float.is_nan lo.(i) || Float.is_nan hi.(i) then
      invalid_arg (name ^ ": NaN bound");
    if lo.(i) > hi.(i) then invalid_arg (name ^ ": low > high")
  done

let make ~low ~high =
  check "Rect.make" low high;
  Array.append low high

let make2 ~x0 ~y0 ~x1 ~y1 =
  [| Float.min x0 x1; Float.min y0 y1; Float.max x0 x1; Float.max y0 y1 |]

let of_point p =
  let cs = Point.coords p in
  Array.append cs cs

let universe n =
  if n <= 0 then invalid_arg "Rect.universe: non-positive dimension";
  let r = Array.make (2 * n) infinity in
  Array.fill r 0 n neg_infinity;
  r

let low r i =
  if i < 0 || i >= dims r then invalid_arg "Rect.low: out of bounds";
  r.(i)

let high r i =
  if i < 0 || i >= dims r then invalid_arg "Rect.high: out of bounds";
  r.(dims r + i)

let lows r = Array.sub r 0 (dims r)
let highs r = Array.sub r (dims r) (dims r)
(* Lexicographic on (lows, highs): the flat layout stores them in that
   order, so one pass over the array is the comparison. *)
let compare r s =
  let c = Int.compare (Array.length r) (Array.length s) in
  if c <> 0 then c
  else
    let rec loop i =
      if i >= Array.length r then 0
      else
        let c = Float.compare r.(i) s.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let equal r s = compare r s = 0

let check_same_dims name r s =
  if Array.length r <> Array.length s then
    invalid_arg (name ^ ": dimension mismatch")

let extent r i = r.(dims r + i) -. r.(i)

let area r =
  (* Multiply extents, treating 0 * infinity as 0 (a degenerate slab
     covers no area even if unbounded in another dimension). *)
  let n = dims r in
  let acc = ref 1.0 in
  for i = 0 to n - 1 do
    let e = r.(n + i) -. r.(i) in
    if e = 0.0 then acc := 0.0
    else if !acc <> 0.0 then acc := !acc *. e
  done;
  !acc

let margin r =
  let n = dims r in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (r.(n + i) -. r.(i))
  done;
  !acc

let center r =
  let n = dims r in
  let cs =
    Array.init n (fun i ->
        let l = r.(i) and h = r.(n + i) in
        if Float.is_finite l && Float.is_finite h then (l +. h) /. 2.0
        else if Float.is_finite l then l
        else if Float.is_finite h then h
        else 0.0)
  in
  Point.make cs

let contains_point r p =
  if Point.dims p <> dims r then
    invalid_arg "Rect.contains_point: dimension mismatch";
  let n = dims r in
  let rec loop i =
    i >= n
    || (r.(i) <= Point.coord p i
       && Point.coord p i <= r.(n + i)
       && loop (i + 1))
  in
  loop 0

let contains outer inner =
  check_same_dims "Rect.contains" outer inner;
  let n = dims outer in
  let rec loop i =
    i >= n
    || (outer.(i) <= inner.(i)
       && inner.(n + i) <= outer.(n + i)
       && loop (i + 1))
  in
  loop 0

let intersects r s =
  check_same_dims "Rect.intersects" r s;
  let n = dims r in
  let rec loop i =
    i >= n || (r.(i) <= s.(n + i) && s.(i) <= r.(n + i) && loop (i + 1))
  in
  loop 0

let intersection r s =
  check_same_dims "Rect.intersection" r s;
  if not (intersects r s) then None
  else begin
    let n = dims r in
    let x = Array.make (2 * n) 0.0 in
    for i = 0 to n - 1 do
      x.(i) <- Float.max r.(i) s.(i);
      x.(n + i) <- Float.min r.(n + i) s.(n + i)
    done;
    Some x
  end

let intersection_area r s =
  match intersection r s with None -> 0.0 | Some x -> area x

let union r s =
  check_same_dims "Rect.union" r s;
  let n = dims r in
  let x = Array.make (2 * n) 0.0 in
  for i = 0 to n - 1 do
    x.(i) <- Float.min r.(i) s.(i);
    x.(n + i) <- Float.max r.(n + i) s.(n + i)
  done;
  x

let union_many = function
  | [] -> invalid_arg "Rect.union_many: empty list"
  | r :: rs -> List.fold_left union r rs

let of_points = function
  | [] -> invalid_arg "Rect.of_points: empty list"
  | ps -> union_many (List.map of_point ps)

let enlargement r s =
  let before = area r and after = area (union r s) in
  if Float.is_finite after then after -. before
  else if Float.is_finite before then infinity
  else 0.0

let distance_sq_to_point r p =
  if Point.dims p <> dims r then
    invalid_arg "Rect.distance_sq_to_point: dimension mismatch";
  let n = dims r in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let x = Point.coord p i in
    let d =
      if x < r.(i) then r.(i) -. x
      else if x > r.(n + i) then x -. r.(n + i)
      else 0.0
    in
    acc := !acc +. (d *. d)
  done;
  !acc

let waste r s =
  let u = area (union r s) in
  if Float.is_finite u then u -. area r -. area s
  else if Float.is_finite (area r) && Float.is_finite (area s) then infinity
  else 0.0

let pp ppf r =
  let n = dims r in
  for i = 0 to n - 1 do
    if i > 0 then Format.fprintf ppf "x";
    Format.fprintf ppf "[%g,%g]" r.(i) r.(n + i)
  done

let to_string r = Format.asprintf "%a" pp r
