type t = { bits : int; space : Rect.t; dims : int }

let create ?(bits_per_dim = 4) ~space () =
  if bits_per_dim < 1 || bits_per_dim > 10 then
    invalid_arg "Zorder.create: bits_per_dim outside [1, 10]";
  let dims = Rect.dims space in
  for i = 0 to dims - 1 do
    if
      not
        (Float.is_finite (Rect.low space i) && Float.is_finite (Rect.high space i))
    then invalid_arg "Zorder.create: unbounded space"
  done;
  { bits = bits_per_dim; space; dims }

let dims t = t.dims
let cells_per_dim t = 1 lsl t.bits

let total_cells t =
  int_of_float (float_of_int (cells_per_dim t) ** float_of_int t.dims)

let cell_index t i x =
  let lo = Rect.low t.space i and hi = Rect.high t.space i in
  let clamped = Float.max lo (Float.min x hi) in
  let frac = (clamped -. lo) /. (hi -. lo) in
  min (cells_per_dim t - 1) (int_of_float (frac *. float_of_int (cells_per_dim t)))

let z_key t indices =
  let key = ref 0 in
  for bit = t.bits - 1 downto 0 do
    Array.iter
      (fun idx -> key := (!key lsl 1) lor ((idx lsr bit) land 1))
      indices
  done;
  !key

let point_key t p =
  z_key t (Array.init t.dims (fun i -> cell_index t i (Point.coord p i)))

let rect_keys t r =
  let lo = Array.init t.dims (fun i -> cell_index t i (Rect.low r i)) in
  let hi = Array.init t.dims (fun i -> cell_index t i (Rect.high r i)) in
  let keys = ref [] in
  let idx = Array.copy lo in
  let rec enumerate d =
    if d = t.dims then keys := z_key t idx :: !keys
    else
      for v = lo.(d) to hi.(d) do
        idx.(d) <- v;
        enumerate (d + 1)
      done
  in
  enumerate 0;
  !keys

let unz_key t key =
  let indices = Array.make t.dims 0 in
  let k = ref key in
  for bit = 0 to t.bits - 1 do
    for d = t.dims - 1 downto 0 do
      indices.(d) <- indices.(d) lor ((!k land 1) lsl bit);
      k := !k lsr 1
    done
  done;
  indices

let cell_rect t key =
  if key < 0 || key >= total_cells t then
    invalid_arg "Zorder.cell_rect: key out of range";
  let indices = unz_key t key in
  let low =
    Array.init t.dims (fun i ->
        let lo = Rect.low t.space i and hi = Rect.high t.space i in
        lo
        +. float_of_int indices.(i) /. float_of_int (cells_per_dim t)
           *. (hi -. lo))
  in
  let high =
    Array.init t.dims (fun i ->
        let lo = Rect.low t.space i and hi = Rect.high t.space i in
        lo
        +. float_of_int (indices.(i) + 1) /. float_of_int (cells_per_dim t)
           *. (hi -. lo))
  in
  Rect.make ~low ~high
