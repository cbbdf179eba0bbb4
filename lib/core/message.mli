(** DR-tree protocol messages.

    Heights follow the leaf-based convention of {!State}. Messages that
    the paper's pseudocode names are kept one-to-one: [Join]/[Add_child]
    (Fig. 8), [Leave] (Fig. 9), the five [Check_*] stabilization
    triggers (Figs. 10–14), [Initiate_new_connection] (Fig. 14), plus
    the dissemination message [Publish] (§3, "Selective Data
    Dissemination"). *)

type level_snapshot = {
  height : int;
  mbr : Geometry.Rect.t;
  parent : Sim.Node_id.t;
  children : Sim.Node_id.Set.t;
}
(** One level of a state snapshot, as carried by [Report]. *)

type snapshot = {
  responder : Sim.Node_id.t;
  top : int;
  filter : Geometry.Rect.t;
  levels : level_snapshot list;
}
(** A node's full per-level state at reply time. The message-passing
    stabilization mode ({!Overlay.stabilize_round_mp}) replaces the
    shared-state model's neighbor reads with one [Query]/[Report]
    round trip per neighbor per round. *)

type agg_fn = Count | Sum | Min | Max | Avg
(** Aggregation function of a standing query (TAG's classic five). *)

val agg_fn_to_string : agg_fn -> string
val agg_fn_of_string : string -> agg_fn option

type agg_partial = {
  a_count : int;
  a_sum : float;
  a_min : float;
  a_max : float;
}
(** A partial aggregate: the one merge-closed summary from which every
    {!agg_fn} finalizes ([a_min]/[a_max] are [infinity]/[neg_infinity]
    when [a_count = 0]). Kept in {!Message} so [Agg_*] messages are
    self-contained; {!module:Agg.Aggregate} re-exports it with the
    algebra. *)

type agg_query = {
  query_id : int;
  q_rect : Geometry.Rect.t;  (** aggregate events inside this rectangle *)
  q_fn : agg_fn;
  q_tct : float;
      (** temporal coherency tolerance: a child suppresses its report
          when its partial moved by at most [q_tct] (component-wise)
          since the value it last sent *)
  q_owner : Sim.Node_id.t;  (** where [Agg_result]s are delivered *)
}
(** A standing aggregate query, as flooded by [Agg_subscribe]. *)

type t =
  | Query of { asker : Sim.Node_id.t }
      (** please send me your state snapshot *)
  | Report of { snapshot : snapshot }
  | Join of {
      joiner : Sim.Node_id.t;
      mbr : Geometry.Rect.t;  (** MBR of the joining (sub)tree root *)
      height : int;  (** height of the joining instance; [0] for a new
                         subscriber, [> 0] when a subtree rejoins *)
      phase : [ `Up | `Down of int ];
          (** [`Up]: redirected toward the root. [`Down at]: descending,
              currently at the receiving process's instance at height
              [at]. *)
      hops : int;
    }
  | Add_child of {
      child : Sim.Node_id.t;
      mbr : Geometry.Rect.t;
      height : int;  (** the child instance's height; it is to enter
                         the receiver's children set at [height + 1] *)
      hops : int;
    }
  | Leave of { who : Sim.Node_id.t; height : int }
      (** controlled departure of [who]'s topmost instance (at
          [height]); sent to its parent *)
  | Check_mbr of int
  | Check_parent of int
  | Check_children of int
  | Check_cover of int
  | Check_structure of int
      (** the payload is the children-set height the module operates
          on *)
  | Cover_sweep of int
      (** run CHECK_COVER at the given height, then forward one level
          up — issued after a join so the MBR growth along the descent
          path cannot leave a better-covering member behind
          (Lemma 3.2's legitimacy after joins) *)
  | Initiate_new_connection of int
      (** dissolve the subtree below the receiver's instance at the
          given height; leaves rejoin individually *)
  | Publish of {
      event_id : int;
      point : Geometry.Point.t;
      at : int;  (** height of the receiving instance *)
      from_child : Sim.Node_id.t option;
          (** for upward steps: the child the event came from (its
              subtree is already covered) *)
      going_up : bool;
      hops : int;
    }
  | Agg_subscribe of { query : agg_query; hops : int }
      (** install a standing query; floods down the children sets,
          guarded by the publish TTL *)
  | Agg_partial of {
      query_id : int;
      epoch : int;
      child : Sim.Node_id.t;  (** sender: a member of the receiver's
                                  children set at [at] *)
      at : int;  (** height of the receiving instance *)
      partial : agg_partial;
    }
      (** one epoch's combined partial for [child]'s subtree, climbing
          one edge of the parent chain *)
  | Agg_result of { query_id : int; epoch : int; value : float option }
      (** finalized aggregate, root to query owner; [None] when no
          event matched (MIN/MAX/AVG of an empty set) *)
  | Agg_merge of {
      query_id : int;
      epoch : int;
      shard : int;  (** the sender's home shard — the cache key, so a
                        re-announce replaces rather than accumulates *)
      partial : agg_partial;
    }
      (** one shard's combined partial for the epoch, sent by a peer
          shard root to the query's merge-owner shard root under
          [Config.forest = Sharded] (DESIGN.md §15); never sent at one
          shard *)
  | Heartbeat of { from : Sim.Node_id.t; seq : int }
      (** [lib/fd]: "I am alive" — sent each detector period to the
          sender's monitored peers (tree neighbors plus fallback-ring
          contacts), and immediately in reply to a [Suspect]
          challenge. [seq] is the sender's wave counter. *)
  | Suspect of { suspect : Sim.Node_id.t; by : Sim.Node_id.t; seq : int }
      (** [lib/fd]: [by] has seen [timeout_factor] silent periods from
          [suspect] and challenges it before the confirmed-dead
          verdict; a live recipient answers with a [Heartbeat] and
          re-checks its own attachment (it may have been evicted
          elsewhere on the same evidence). *)

val pp : Format.formatter -> t -> unit
val tag : t -> string
(** Constructor name, for tracing and per-kind reports:
    [kind_name (kind_code m)]. *)

val kind_code : t -> int
(** The constructor's wire tag byte (the byte {!Codec} writes after
    the length prefix), in [0, kind_count): the index of the per-kind
    traffic counters. *)

val kind_count : int
(** Number of message kinds. *)

val kind_name : int -> string
(** Constructor name of a kind code.
    @raise Invalid_argument outside [0, kind_count). *)

(** Binary wire codec: length-prefixed frames for every message
    variant (including the [Agg_*] payloads), the serialization the
    [Wire] transport runs on every inter-process hop.

    Format: a u32 big-endian body length, one tag byte, then the
    payload — integers as zigzag LEB128 varints, floats as their
    IEEE-754 bits (8 bytes big-endian, so unbounded and degenerate
    rectangle bounds round-trip exactly), sets and snapshot levels
    counted then enumerated. The codec is {e total}: every [t] value
    encodes, and [decode (encode m) = Ok m]. The decoder rejects —
    with [Error], never an exception — truncated frames, trailing
    bytes, unknown tags, counts exceeding the frame, and payloads
    violating the geometric invariants (NaN bounds, [low > high]). *)
module Codec : sig
  val encode : t -> string
  (** The full frame, length prefix included. *)

  val decode : string -> (t, string) result
  (** Inverse of {!encode}; [Error] describes the first malformation. *)

  val encoded_size : t -> int
  (** [String.length (encode msg)]: the message's cost on the wire. *)

  val transport : t Sim.Transport.t
  (** The [Wire] transport over this codec — pass to
      [Overlay.create ~transport] to run the overlay with every
      message serialized, byte-counted and re-parsed on each hop. *)
end
