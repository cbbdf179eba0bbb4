external monotonic_ns : unit -> int64 = "drtree_clock_monotonic_ns"

let now () = Int64.to_float (monotonic_ns ()) *. 1e-9
