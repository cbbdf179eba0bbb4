(** Churn traces.

    The paper models arrivals and departures as Poisson processes
    (Lemma 3.7). This module samples merged join/leave traces to
    drive churn experiments. *)

type action = Join | Leave

val trace :
  Rng.t ->
  join_rate:float ->
  leave_rate:float ->
  horizon:float ->
  (float * action) list
(** [trace rng ~join_rate ~leave_rate ~horizon] samples the merged
    Poisson process on [0, horizon): event times are exponential with
    rate [join_rate +. leave_rate]; each event is a join with
    probability [join_rate / (join_rate +. leave_rate)]. Sorted by
    time. Rates must be non-negative and not both zero. *)

val departure_times : Rng.t -> rate:float -> count:int -> float list
(** [departure_times rng ~rate ~count] is the first [count] arrival
    times of a Poisson process with the given rate (sorted). Used by
    the churn-resistance experiment, which only needs departures. *)
