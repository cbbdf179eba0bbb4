(* Structure-of-arrays priority queue: priorities unboxed in a
   [Float.Array], tiebreaks in an [int array], values in a plain
   array. Entries live in one of two places:

   - the {e run}, a FIFO of entries added in nondecreasing
     (priority, seq) order — each add at or after the run's last entry
     appends, each pop from its head is O(1). The simulator's traffic
     is mostly such appends: under a fixed latency every send lands at
     [now + latency], and [now] only grows;
   - a binary heap for everything else, sifted by moving a hole.

   The minimum is the smaller of the run's head and the heap's root,
   so the pop order is the (priority, seq) order whichever side holds
   an entry. Neither side allocates per entry once its arrays have
   grown to the working-set size.

   Vacated value slots are overwritten with [filler] (the first value
   ever added) so a popped value does not stay reachable from the
   queue until its slot is reused. *)

type 'a cols = {
  mutable prios : Float.Array.t;
  mutable seqs : int array;
  mutable values : 'a array;
}

type 'a t = {
  heap : 'a cols;
  mutable size : int; (* heap entries: [0, size) *)
  run : 'a cols;
  mutable head : int; (* run entries: [head, tail) *)
  mutable tail : int;
  mutable filler : 'a option;
}

let empty_cols () = { prios = Float.Array.create 0; seqs = [||]; values = [||] }

let create () =
  { heap = empty_cols (); size = 0; run = empty_cols (); head = 0; tail = 0;
    filler = None }

let length h = h.size + h.tail - h.head
let is_empty h = length h = 0

let[@inline] lt p1 s1 p2 s2 = p1 < p2 || (Float.equal p1 p2 && s1 < s2)

let filler_for h value =
  match h.filler with
  | Some f -> f
  | None ->
      h.filler <- Some value;
      value

(* Replace [c]'s arrays by ones of double the capacity holding its
   entries [from, from + n) at [0, n). *)
let grow c ~from ~n fill =
  let cap = max 16 (2 * Array.length c.values) in
  let prios = Float.Array.create cap in
  Float.Array.blit c.prios from prios 0 n;
  let seqs = Array.make cap 0 in
  Array.blit c.seqs from seqs 0 n;
  let values = Array.make cap fill in
  Array.blit c.values from values 0 n;
  c.prios <- prios;
  c.seqs <- seqs;
  c.values <- values

(* {2 The run} *)

let run_append h ~priority ~seq value =
  let r = h.run in
  if h.tail >= Array.length r.values then begin
    let n = h.tail - h.head and fill = filler_for h value in
    (* Slide down when at least half the buffer is drained, else grow. *)
    if h.head > 0 && 2 * n <= Array.length r.values then begin
      Float.Array.blit r.prios h.head r.prios 0 n;
      Array.blit r.seqs h.head r.seqs 0 n;
      Array.blit r.values h.head r.values 0 n;
      Array.fill r.values n (h.tail - n) fill
    end
    else grow r ~from:h.head ~n fill;
    h.head <- 0;
    h.tail <- n
  end;
  Float.Array.set r.prios h.tail priority;
  r.seqs.(h.tail) <- seq;
  r.values.(h.tail) <- value;
  h.tail <- h.tail + 1

let run_pop h =
  let r = h.run in
  let v = r.values.(h.head) in
  (match h.filler with Some f -> r.values.(h.head) <- f | None -> ());
  h.head <- h.head + 1;
  if h.head = h.tail then begin
    h.head <- 0;
    h.tail <- 0
  end;
  v

(* {2 The binary heap} *)

(* Sift a hole up from the end to where (prio, seq) belongs, shifting
   each greater parent down into it. *)
let heap_add h ~priority ~seq value =
  if h.size >= Array.length h.heap.values then
    grow h.heap ~from:0 ~n:h.size (filler_for h value);
  let { prios; seqs; values } = h.heap in
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if lt priority seq (Float.Array.get prios parent) seqs.(parent) then begin
      Float.Array.set prios !i (Float.Array.get prios parent);
      seqs.(!i) <- seqs.(parent);
      values.(!i) <- values.(parent);
      i := parent
    end
    else continue := false
  done;
  Float.Array.set prios !i priority;
  seqs.(!i) <- seq;
  values.(!i) <- value

(* Remove the root: the last entry leaves its slot (refilled with the
   filler) and sifts down from the root hole. *)
let heap_pop h =
  let { prios; seqs; values } = h.heap in
  let top = values.(0) in
  let n = h.size - 1 in
  h.size <- n;
  let p = Float.Array.get prios n and s = seqs.(n) and v = values.(n) in
  (match h.filler with Some f -> values.(n) <- f | None -> ());
  if n > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n
             && lt (Float.Array.get prios r) seqs.(r)
                  (Float.Array.get prios l) seqs.(l)
          then r
          else l
        in
        if lt (Float.Array.get prios c) seqs.(c) p s then begin
          Float.Array.set prios !i (Float.Array.get prios c);
          seqs.(!i) <- seqs.(c);
          values.(!i) <- values.(c);
          i := c
        end
        else continue := false
      end
    done;
    Float.Array.set prios !i p;
    seqs.(!i) <- s;
    values.(!i) <- v
  end;
  top

(* {2 The queue} *)

let add h ~priority ~seq value =
  let last = h.tail - 1 in
  if
    h.tail = h.head
    || not
         (lt priority seq (Float.Array.get h.run.prios last) h.run.seqs.(last))
  then run_append h ~priority ~seq value
  else heap_add h ~priority ~seq value

(* Is the minimum at the run's head (rather than the heap's root)? *)
let min_in_run h =
  h.tail > h.head
  && (h.size = 0
     || lt
          (Float.Array.get h.run.prios h.head)
          h.run.seqs.(h.head)
          (Float.Array.get h.heap.prios 0)
          h.heap.seqs.(0))

let peek h =
  if min_in_run h then
    Some
      ( Float.Array.get h.run.prios h.head,
        h.run.seqs.(h.head),
        h.run.values.(h.head) )
  else if h.size > 0 then
    Some (Float.Array.get h.heap.prios 0, h.heap.seqs.(0), h.heap.values.(0))
  else None

let min_prio h =
  if min_in_run h then Float.Array.get h.run.prios h.head
  else if h.size > 0 then Float.Array.get h.heap.prios 0
  else invalid_arg "Heap.min_prio: empty heap"

let pop_exn h =
  if min_in_run h then run_pop h
  else if h.size > 0 then heap_pop h
  else invalid_arg "Heap.pop_exn: empty heap"

let pop h =
  match peek h with
  | None -> None
  | Some (prio, seq, _) -> Some (prio, seq, pop_exn h)

let clear h =
  (match h.filler with
  | Some f ->
      Array.fill h.heap.values 0 h.size f;
      Array.fill h.run.values h.head (h.tail - h.head) f
  | None -> ());
  h.size <- 0;
  h.head <- 0;
  h.tail <- 0
