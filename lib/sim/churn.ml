type action = Join | Leave

let trace rng ~join_rate ~leave_rate ~horizon =
  if join_rate < 0.0 || leave_rate < 0.0 then
    invalid_arg "Churn.trace: negative rate";
  let total = join_rate +. leave_rate in
  if total <= 0.0 then invalid_arg "Churn.trace: both rates zero";
  let p_join = join_rate /. total in
  let rec loop time acc =
    let time = time +. Rng.exponential rng ~rate:total in
    if time >= horizon then List.rev acc
    else
      let action = if Rng.float rng 1.0 < p_join then Join else Leave in
      loop time ((time, action) :: acc)
  in
  loop 0.0 []

let departure_times rng ~rate ~count =
  if rate <= 0.0 then invalid_arg "Churn.departure_times: non-positive rate";
  if count < 0 then invalid_arg "Churn.departure_times: negative count";
  let rec loop time k acc =
    if k = 0 then List.rev acc
    else
      let time = time +. Rng.exponential rng ~rate in
      loop time (k - 1) (time :: acc)
  in
  loop 0.0 count []
