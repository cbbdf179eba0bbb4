module Node_id = Sim.Node_id

(* The work queue of the incremental repair scheduler: a set of
   (process, height) entries whose state some mutation may have left
   in need of repair. Every write path of the protocol marks here (via
   [Access.mark]); the round driver drains the set and runs the
   CHECK_* modules over the drained entries only.

   Entries are keyed on a single packed int, [id * 2^20 + h]: one
   word, no tuple allocation per mark, and — because heights are far
   below 2^20 — packing is strictly monotone in (id, height), so
   sorting the packed keys IS the deterministic lexicographic drain
   order. The key packs the {e process id}, not its intern slot:
   corruption writes arbitrary ids into parent/children fields and
   departure marking forwards them here, so marks must be valid for
   ids that were never spawned (and thus have no slot) — see
   DESIGN.md §11. *)

let height_bits = 20
let height_stride = 1 lsl height_bits

(* Int-specialised, so keys compare without the polymorphic compare.
   Not [Node_id.Table]: its identity hash would bucket packed keys by
   their low (height) bits alone, while [Int.hash] mixes every bit. *)
module Table = Hashtbl.Make (Int)

type t = { table : unit Table.t }

let create () = { table = Table.create 64 }
let pack p h = (p * height_stride) + h

(* Floor (not truncating) division, so pack/unpack stays a bijection
   even for negative ids — unreachable today, but the queue accepted
   arbitrary ids when it was tuple-keyed and keeps doing so. *)
let unpack key =
  let p = if key >= 0 then key / height_stride
          else (key - (height_stride - 1)) / height_stride in
  (p, key - (p * height_stride))

(* Negative heights arrive naturally from call sites computing [h - 1]
   at a leaf; they denote no instance, so they are dropped rather than
   burdening every caller with the guard. Heights at or above the
   stride cannot arise (tree heights are logarithmic in N and
   [Corrupt] only writes heights up to [top]); the guard keeps the
   packing total anyway. *)
let mark t p h =
  if h >= 0 && h < height_stride then Table.replace t.table (pack p h) ()

let mem t p h =
  h >= 0 && h < height_stride && Table.mem t.table (pack p h)

let is_empty t = Table.length t.table = 0
let cardinal t = Table.length t.table
let clear t = Table.reset t.table

(* Deterministic order: every run is a pure function of its seeds, so
   the scheduler must visit entries in a stable order, not hashtable
   order. Packed keys sort exactly like the (id, height) pairs. *)
let entries t =
  Table.fold (fun key () acc -> key :: acc) t.table []
  |> List.sort Int.compare |> List.map unpack

let drain t =
  let es = entries t in
  clear t;
  es
