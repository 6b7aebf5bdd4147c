(** Dead-drop stores kept by the last server (§4 conversation drops,
    §5 invitation drops) and the observable access-count histogram. *)

type t
(** The conversation store.  Drops are routed to shards by drop-id
    prefix, so [resolve] can pair-match per shard over the domain pool.
    Observationally identical for any shard count: gated by
    [test/prop/prop_deaddrop.ml] against the retained seed oracle
    [Deaddrop_ref] (test/oracles). *)

val create : ?shards:int -> unit -> t
(** [shards] defaults to 1; clamped to at least 1. *)

val clear : t -> unit

val put : t -> slot:int -> drop_id:Types.drop_id -> sealed:bytes -> unit
(** Record one exchange request occupying batch position [slot].  Each
    slot must be put at most once per round. *)

val total_accesses : t -> int

val empty_result : bytes
(** The all-zero {!Types.exchange_result_len}-byte reference value for
    lone accesses.  Treat as immutable: {!resolve} never returns this
    buffer itself, only fresh copies. *)

val resolve : ?pool:Vuvuzela_parallel.Pool.t -> t -> n_slots:int -> bytes array
(** Match up all accesses: the first two requests to a drop swap sealed
    messages; every other slot gets a fresh all-zero buffer (mutating
    one slot's result never affects another's).  With [pool] the
    per-shard pair matching fans out over the domain pool (each slot
    belongs to exactly one drop, hence one shard, so the writes are
    disjoint and the result is bit-identical to the sequential path). *)

type histogram = { m1 : int; m2 : int; m_more : int }
(** The protocol's only observable variables (§4.2): counts of drops
    accessed once, twice, and (adversarially) more than twice. *)

val histogram : t -> histogram
(** The sum of per-shard counts, each maintained at {!put} time. *)

module Invitation : sig
  type store

  val create : m:int -> store
  val clear : store -> unit

  val index_of : m:int -> bytes -> int
  (** [H(pk) mod m] (§5.1). *)

  val put : store -> index:int -> bytes -> unit
  (** Append an invitation; writes to {!Types.noop_drop} are discarded. *)

  val seal : store -> unit
  (** Serve each drop in invitation byte order from now on, so a
      published drop reveals nothing of the order its invitations
      arrived in.  Draws nothing from any DRBG. *)

  val fetch : store -> index:int -> bytes list
  (** All invitations of a drop (clients trial-decrypt each): in byte
      order once {!seal}ed, in arrival order before. *)

  val size : store -> index:int -> int
  (** O(1): per-index counts are tracked at {!put} time. *)

  val total : store -> int
end
