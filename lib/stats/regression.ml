type fit = { slope : float; intercept : float; r2 : float }

let linear points =
  let n = List.length points in
  if n < 2 then invalid_arg "Regression.linear: need at least 2 points";
  let nf = float_of_int n in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let denom = (nf *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then
    invalid_arg "Regression.linear: constant x values";
  let slope = ((nf *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. nf in
  let mean_y = sy /. nf in
  let ss_tot =
    List.fold_left (fun a (_, y) -> a +. ((y -. mean_y) ** 2.0)) 0.0 points
  in
  let ss_res =
    List.fold_left
      (fun a (x, y) ->
        let fitted = (slope *. x) +. intercept in
        a +. ((y -. fitted) ** 2.0))
      0.0 points
  in
  let r2 = if ss_tot = 0.0 then nan else 1.0 -. (ss_res /. ss_tot) in
  { slope; intercept; r2 }
