(** Monotonic wall-clock.

    Backed by [clock_gettime(CLOCK_MONOTONIC)] (QueryPerformanceCounter
    on Windows): unaffected by NTP step adjustments, so bench
    wall-clock deltas cannot jump. The epoch is arbitrary — only
    differences between readings are meaningful. *)

val now : unit -> float
(** Seconds since an arbitrary, fixed epoch. *)
