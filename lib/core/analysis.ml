let log_base base x = log x /. log base

let height_bound ~m ~n =
  if n <= 1 then 0.0 else log_base (float_of_int m) (float_of_int n)

let memory_bound ~m ~max_fill ~n =
  if n <= 1 then float_of_int max_fill
  else
    let lg2 x = log x /. log 2.0 in
    let nf = float_of_int n in
    float_of_int max_fill *. lg2 nf *. lg2 nf /. lg2 (float_of_int m)

let repair_steps_bound ~m ~n =
  float_of_int n *. Float.max 1.0 (height_bound ~m ~n)

let churn_disconnect_time ~n ~delta ~lambda =
  if delta <= 0.0 || lambda <= 0.0 then infinity
  else
    let nf = float_of_int n in
    let mass = delta *. lambda in
    delta /. nf *. exp (((nf -. mass) ** 2.0) /. (4.0 *. mass))
