(** Closed-form bounds from §3.4 of the paper, used by the experiment
    harness to print predicted-vs-measured columns. *)

val height_bound : m:int -> n:int -> float
(** Lemma 3.1: the height of a legitimate DR-tree is
    [O(log_m N)] — this returns [log_m n] (the bound without its
    constant). *)

val memory_bound : m:int -> max_fill:int -> n:int -> float
(** Lemma 3.1: memory complexity [O(M log^2 N / log m)] — returns
    [M * (log2 n)^2 / log2 m]. *)

val repair_steps_bound : m:int -> n:int -> float
(** Lemmas 3.3–3.5: compaction / departures stabilize in
    [O(N log_m N)] steps. *)

val churn_disconnect_time : n:int -> delta:float -> lambda:float -> float
(** Lemma 3.7, as printed: expected time before the DR-tree
    disconnects with [N] nodes, stabilization-free window [Δ] and
    departure rate [λ]:
    [Δ/N · exp ((N − Δλ)² / (4Δλ))].
    The printed formula is dimensionally odd (see DESIGN.md §3); we
    reproduce it verbatim and compare its {e shape} against
    simulation. *)
