(** Invitation-drop distribution (§5.5): untrusted edge caches in front
    of the last server, exploiting that a dialing round's drops are
    immutable.  Origin egress becomes O(m · drop size) per round instead
    of O(clients · drop size). *)

type t

val create :
  ?edges:int ->
  ?history:int ->
  fetch:(dial_round:int -> index:int -> bytes list) ->
  unit ->
  t
(** [fetch] is the origin (the last server); [history] (default 2) is
    how many dialing rounds edges retain before eviction. *)

val fetch : t -> client_pk:bytes -> dial_round:int -> index:int -> bytes list
(** Serve a client's drop download through its edge (clients hash to
    edges by public key).  Returns [] for evicted (too-old) rounds. *)

type stats = {
  origin_requests : int;
  origin_bytes : int;
  edge_hits : int;
  edge_misses : int;
  edge_bytes : int;
  hit_ratio : float;
}

val stats : t -> stats
