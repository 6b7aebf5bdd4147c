(** The dialing end of a chain link, and the coordinator's view of a
    chain: both {!Network} constructors run every round through one.

    Every link of a chain, in process or multi-process, is dialed by
    the tier above it:
    the coordinator dials server 0 ([Hello] with index -1), and server
    [i] dials server [i + 1] ([Hello] with index [i]).  This module is
    that dialing end, for both.  It dials with callbacks on the owner's
    {!Vuvuzela_transport.Transport.t}, learns the public keys of the
    chain below from the handshake reply ([Chain_info]), sends each round
    as a trace context and then part frames, and settles the round in
    flight when its results, a status or an abort for it arrive.  Every
    reply frame goes to the owner: a daemon relays it upstream
    ({!dial}), and the coordinator waits for it ({!round_streamed}).

    Connection loss is never fatal: the connection redials under backoff
    on its own.  A round in flight when its link drops survives if its
    reply arrives within [flap_grace_ms] of the drop (the peer parks it
    in its outbox and re-sends it over the healed link).  Otherwise the
    link answers the round itself when the grace ends, with the
    retryable {!Rpc.transport_error} ["link to server N lost"], for the
    supervisor's abort/retry machinery.

    A re-handshake whose keys differ from those learned first (the
    server below restarted from another seed) is a key change: it is
    logged, counted in [vuvuzela_remote_key_changes_total] at the
    coordinator and [vuvuzela_daemon_key_changes_total] at a daemon, and
    reported by {!key_change} until a handshake announces the keys in
    use again.  Meanwhile rounds, and the one in flight, are answered
    with the non-retryable {!Rpc.key_change}.  A change further down is
    the next daemon's to report. *)

type t

(** {2 A daemon's downstream link} *)

val link_of :
  Config.t -> tag:string -> string option * Vuvuzela_transport.Shaper.config option
(** One dialed link's [backoff_seed] and [link] from a deployment, both
    seeded per dialer [tag] (["coordinator"], or a server's index). *)

val dial :
  Vuvuzela_transport.Transport.t ->
  index:int ->
  ?telemetry:Vuvuzela_telemetry.Telemetry.t ->
  ?backoff_seed:string ->
  ?link:Vuvuzela_transport.Shaper.config ->
  ?flap_grace_ms:float ->
  log:(string -> unit) ->
  on_keys:(bytes list -> unit) ->
  on_reply:(Rpc.message -> unit) ->
  addr:Unix.sockaddr ->
  unit ->
  t
(** Start dialing [addr] as chain position [index]; returns at once.
    [on_keys] receives the first handshake's keys (the next server's
    and those below it); [on_reply] every decoded frame from the peer,
    stale ones included, and the status of a round whose link stayed
    lost.  [backoff_seed] seeds the reconnect backoff's jitter, [link]
    emulates a WAN on the link, and [flap_grace_ms] (default [0.]: the
    drop answers the round) is the grace above. *)

val forward :
  t ->
  kind:Round.kind ->
  round:int ->
  m:int ->
  ?ctx:Vuvuzela_telemetry.Trace.context ->
  bytes array ->
  unit
(** Send a batch as the round in flight: the trace context, then part
    frames of the size {!set_pipeline} set. *)

val send : t -> Rpc.message -> unit
(** Queue one frame for the peer (sent once the link is established). *)

val key_change : t -> string option
(** The detail of a standing key change, if any. *)

val connected : t -> bool
(** Whether the link's connection is established: dialed, and the
    peer's handshake reply received. *)

val close : t -> unit

(** {2 The coordinator} *)

val connect :
  ?transport:Vuvuzela_transport.Transport.t ->
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
    default 30s, on the loop's clock) for the chain to assemble —
    the handshake reply only arrives once every server downstream has
    its keys.  [dial_kind] must match the daemons' (it sizes dialing
    batches).  Rounds wait for results without a deadline until
    {!set_deadline_ms} sets one.  [transport] is the endpoint to dial
    from (default: one of its own on sockets); the in-process chain
    passes its in-memory one.  The other arguments are {!dial}'s. *)

val transport : t -> Vuvuzela_transport.Transport.t
(** The endpoint the link dials from; its loop's clock times rounds. *)

val public_keys : t -> bytes list
(** The keys in use below this link, in chain order: the whole chain's
    at the coordinator. *)

val set_deadline_ms : t -> float option -> unit
(** Bound each round's wait for results on the loop's clock, timed from
    the moment the round starts to leave; [None] waits for as long as a
    reply can still come. *)

val set_pipeline : t -> int option -> unit
(** [Some chunk] (clamped ≥ 1): no part leaving on this link holds more
    than [chunk] onions (larger producer chunks are split), so the next
    hop peels early parts while later ones are still crossing the wire.
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
(** One round through the link ([m] invitation drops; ignored for
    conversation rounds): [produce feed] pushes the batch as slot-ordered
    chunks (a streaming {!Entry} collector's sink) and returns when the
    intake is complete.  Each chunk is normalized by {!Entry.normalize}
    and leaves as part frames (see {!set_pipeline}) with one part of
    lookahead, so the final part carries [last] and the coordinator
    buffers at most two chunks while the first hop peels early parts;
    no tier materializes the whole onion batch.  Results depend only on
    the chunk concatenation and are slot-aligned with the fed requests.
    [Error] is a typed status: one a server sent in place of results,
    the lost-link status above, or the retryable
    {!Rpc.deadline_exceeded} when the reply was not back by the
    deadline, came back after it, or — in process — can never come
    because the loop went idle. *)

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

val abort : t -> kind:Round.kind -> round:int -> unit
(** Settle the round if it is the one in flight, and send a best-effort
    [Abort] frame, forwarded hop to hop; a link that is down simply
    misses it (stale round state on a server is inert — every retry uses
    a fresh round number). *)

val fetch_invitations : t -> dial_round:int -> index:int -> bytes list
(** Download one invitation drop from the last server (relayed down the
    chain).  Returns [[]] if the link fails — the client scans nothing
    now and catches up on a later dialing round, exactly like a blocked
    client. *)

val stats : t -> Vuvuzela_transport.Conn.stats
(** Wire counters of the link's transport (bytes, frames, reconnects). *)

val shutdown : t -> unit
(** Send [Bye] down the chain and close.  Idempotent. *)
