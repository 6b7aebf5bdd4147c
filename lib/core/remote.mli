(** The coordinator's view of a chain whose servers are separate
    processes: the same round operations {!Chain} offers in-process,
    carried over a framed TCP connection to the first hop.

    The coordinator dials server 0 ([Hello] with index -1), learns the
    full public-key list from the handshake reply ([Chain_info] — each
    server learned its suffix the same way from its successor), then
    drives one round at a time: send the batch as part frames, pump the
    event loop until the results frame (or a typed [Status], or the
    deadline) comes back.  Connection loss is never fatal here — the transport
    redials under backoff while failures surface per round as retryable
    {!Rpc.transport_error} statuses for the supervisor's existing
    abort/retry machinery.

    A re-handshake whose key list differs from the one learned at
    connect (the first hop restarted from another seed) is a key
    change: it is logged, counted in [vuvuzela_remote_key_changes_total],
    and fails every later round, and the one in flight, with the
    non-retryable {!Rpc.key_change}, until a handshake announces the old
    keys again.  A change further down the chain is the first hop's to
    report. *)

type t

val connect :
  ?telemetry:Vuvuzela_telemetry.Telemetry.t ->
  ?dial_kind:Dialing.kind ->
  ?handshake_timeout_ms:float ->
  ?backoff_seed:string ->
  ?link:Vuvuzela_transport.Shaper.config ->
  ?flap_grace_ms:float ->
  addr:Unix.sockaddr ->
  unit ->
  (t, string) result
(** Dial the first hop and wait (at most [handshake_timeout_ms],
    default 30s) for the chain to assemble — the handshake reply only
    arrives once every server downstream has its keys.  [dial_kind]
    must match the daemons' (it sizes dialing batches).  Rounds wait
    for results without a deadline until {!set_deadline_ms} sets one.
    [backoff_seed] makes the reconnect backoff's full jitter
    deterministic, [link] emulates WAN characteristics on the
    coordinator → first-hop link, and [flap_grace_ms] (default [0.])
    lets a round survive a mid-round connection flap: on a drop the
    coordinator keeps pumping that long for the healed link to
    re-deliver the reply the daemon parked in its outbox. *)

val length : t -> int
val public_keys : t -> bytes list

val set_deadline_ms : t -> float option -> unit
(** Bound each round's wait for results; [None] waits forever. *)

val set_pipeline : t -> int option -> unit
(** [Some chunk] (clamped ≥ 1): no part leaving for the first hop holds
    more than [chunk] onions (larger producer chunks are split), so it
    peels early parts while later ones are still crossing the wire.
    [None] (the default) sends one part per producer chunk — a
    materialized batch as one whole-batch part.  Results are
    bit-identical at any part size. *)

val set_trace_ctx : t -> Vuvuzela_telemetry.Trace.context option -> unit
(** Announce this context to the first hop ahead of the next round's
    batch (an [Rpc.Trace_ctx] control frame on the same ordered link),
    so daemon hop spans parent into the coordinator's round root.
    [None] stops announcing.  Pure control plane: transcripts cover
    request/reply bytes only, so this never perturbs a digest. *)

val round_streamed :
  t ->
  kind:Round.kind ->
  m:int ->
  round:int ->
  produce:((bytes array -> unit) -> unit) ->
  (bytes array, Rpc.status) result
(** Same contract as {!Chain.round_streamed}, including the entry
    ingress policy ({!Entry.normalize}): each producer chunk leaves as
    part frames (see {!set_pipeline}) with one part of lookahead, so the
    final part carries [last] and the coordinator buffers at most two
    chunks while the first hop peels early parts.  [Error] is a typed
    status: one a server sent in place of results, or a local
    {!Rpc.transport_error}/deadline for a link that failed silently. *)

val conversation_round_streamed :
  t ->
  round:int ->
  produce:((bytes array -> unit) -> unit) ->
  (bytes array, Rpc.status) result
(** {!round_streamed} for a conversation round. *)

val dialing_round_streamed :
  t ->
  round:int ->
  m:int ->
  produce:((bytes array -> unit) -> unit) ->
  (bytes array, Rpc.status) result

val conversation_round :
  t -> round:int -> bytes array -> (bytes array, Rpc.status) result
(** A materialized batch fed as one producer chunk. *)

val dialing_round :
  t -> round:int -> m:int -> bytes array -> (bytes array, Rpc.status) result

val abort : t -> kind:Round.kind -> round:int -> unit
(** Best-effort [Abort] frame, forwarded hop to hop; a link that is
    down simply misses it (stale round state on a server is inert —
    every retry uses a fresh round number). *)

val fetch_invitations : t -> dial_round:int -> index:int -> bytes list
(** Download one invitation drop from the last server (relayed down the
    chain).  Returns [[]] if the link fails — the client scans nothing
    now and catches up on a later dialing round, exactly like a blocked
    client. *)

val stats : t -> Vuvuzela_transport.Conn.stats
(** Wire counters for this endpoint (bytes, frames, reconnects). *)

val shutdown : t -> unit
(** Send [Bye] down the chain and close.  Idempotent. *)
