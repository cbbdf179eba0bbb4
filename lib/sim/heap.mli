(** Min-priority queue, keyed by float priority with an integer tiebreak.

    The simulator's event queue: events fire in (time, sequence) order,
    so simultaneous events are processed in insertion order and runs
    are deterministic.

    Entries are stored as parallel arrays (unboxed priorities,
    tiebreaks, values), so adding and popping allocate nothing beyond
    amortized growth. An add at or after the last in-order add goes to
    a FIFO run (O(1) add and pop); any other add goes to a binary heap
    (O(log n)); pops take the smaller of the two minima. A popped
    value is not kept reachable: its slot is overwritten with the
    first value ever added. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> priority:float -> seq:int -> 'a -> unit
(** Insert with the given priority and tiebreak sequence number. *)

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum element, or [None] when empty. *)

val pop_exn : 'a t -> 'a
(** Remove and return the minimum element's value only — no option or
    tuple allocation, for the engine's delivery hot loop (pair with
    {!min_prio} when the timestamp is needed).
    @raise Invalid_argument when empty. *)

val min_prio : 'a t -> float
(** Priority of the minimum element without removing it.
    @raise Invalid_argument when empty. *)

val peek : 'a t -> (float * int * 'a) option
(** The minimum element without removing it. *)

val clear : 'a t -> unit
