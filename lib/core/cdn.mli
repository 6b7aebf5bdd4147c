(** Invitation-drop distribution (§5.5): untrusted edge caches in front
    of the last server, exploiting that a dialing round's drops are
    immutable.  Origin egress becomes O(m · drop size) per round instead
    of O(clients · drop size). *)

type t

val create :
  ?edges:int ->
  ?history:int ->
  ?bloom_fp:float ->
  ?bloom_capacity:int ->
  fetch:(dial_round:int -> index:int -> bytes list) ->
  unit ->
  t
(** [fetch] is the origin (the last server); [history] (default 2) is
    how many dialing rounds edges retain before eviction.

    [bloom_fp] mounts a {!Stable_bloom} subscription prefilter on every
    edge at that target false-positive rate (sized for [bloom_capacity]
    live subscriptions, default 4096), enabling {!fetch_matched}'s
    scan-free download path. *)

val has_prefilter : t -> bool
(** Whether edges carry a subscription prefilter ([bloom_fp] was set). *)

val fetch : t -> client_pk:bytes -> dial_round:int -> index:int -> bytes list
(** Serve a client's drop download through its edge (clients hash to
    edges by public key).  Returns [] for evicted (too-old) rounds. *)

val fetch_matched :
  t ->
  client_pk:bytes ->
  dial_round:int ->
  index:int ->
  m:int ->
  (int * bytes list) list
(** [fetch_matched t ~client_pk ~dial_round ~index ~m] registers the
    client's subscription (a tag over pk, round, and drop index) with
    its edge's prefilter, then serves every drop index in [0..m-1] whose
    tag the filter matches.  The client's own [index] always matches
    (registration precedes the scan, so there are no false negatives —
    a real invitation can never be filtered out); other indices pass
    only at the configured false-positive rate, adding tunable cover
    traffic on this unmixed path.  Without a prefilter this degrades to
    [[(index, fetch ...)]].  Returns [] for evicted rounds. *)

type stats = {
  origin_requests : int;
  origin_bytes : int;
  edge_hits : int;
  edge_misses : int;
  edge_bytes : int;
  hit_ratio : float;
  prefilter_tested : int;  (** tags scanned by {!fetch_matched} *)
  prefilter_served : int;  (** scans that matched (incl. false positives) *)
}

val stats : t -> stats
