(** The transport endpoint: one event loop, its listeners and
    connections, aggregated wire counters, and the telemetry bridge.

    Two usage styles, matching the two kinds of process:

    - {e daemon style} (a chain server): [listen] for the upstream hop,
      [dial] the downstream hop, react to frames from loop callbacks and
      drive everything with [run_once]/[run_until].
    - {e client style} (the coordinator): [connect] to the first hop and
      use the synchronous [send_batch]/[recv_batch] pair — the round
      protocol is lockstep, so the coordinator's natural shape is
      "send the batch, pump the loop until the results frame (or a
      deadline) arrives". *)

type t

val create : ?telemetry:Vuvuzela_telemetry.Telemetry.t -> unit -> t
(** Also ignores [SIGPIPE] process-wide: a peer death must surface as a
    write error on that connection, not kill the process. *)

val loop : t -> Evloop.t
val stats : t -> Conn.stats
(** Aggregated over every connection this endpoint created. *)

val run_once : ?max_wait_ms:float -> t -> unit
val run_until : ?deadline_ms:float -> t -> (unit -> bool) -> bool

val publish : t -> unit
(** Push the counters into the telemetry registry as gauges
    ([vuvuzela_net_bytes_in], [..._bytes_out], [..._frames_in],
    [..._frames_out], [..._reconnects], [..._outages],
    [..._reconnect_storm_ms] — duration of the most recent completed
    outage —, [..._link_stalls] and [..._shaped_delay_ms] — frames held
    back by the link shaper and the total emulated delay).  No-op
    without a sink. *)

(** {2 Daemon style} *)

type listener

val listen :
  t ->
  Unix.sockaddr ->
  ?backlog:int ->
  on_accept:(Unix.file_descr -> Unix.sockaddr -> unit) ->
  unit ->
  (listener, string) result
(** Bind ([SO_REUSEADDR]) + listen, non-blocking.  [on_accept] receives
    each raw accepted socket — wrap it with {!Conn.of_fd} to join the
    framed world.  [Error] carries the bind/listen failure (the caller
    decides whether a sandbox without sockets is fatal). *)

val dial :
  t ->
  addr:Unix.sockaddr ->
  hello:bytes ->
  ?base_backoff_ms:float ->
  ?max_backoff_ms:float ->
  ?handshake_timeout_ms:float ->
  ?backoff_seed:string ->
  ?shaper:Shaper.config ->
  on_established:(Conn.t -> bytes -> unit) ->
  on_frame:(Conn.t -> bytes -> unit) ->
  on_drop:(Conn.t -> unit) ->
  unit ->
  Conn.t
(** {!Conn.dial} wired to this endpoint's loop and counters.
    [backoff_seed] enables seeded full-jitter reconnect backoff;
    [shaper] emulates the link's WAN characteristics (ignored when
    {!Shaper.is_transparent}). *)

(** {2 Client style} *)

type client

val connect :
  t ->
  addr:Unix.sockaddr ->
  hello:bytes ->
  ?max_backoff_ms:float ->
  ?backoff_seed:string ->
  ?shaper:Shaper.config ->
  unit ->
  client
(** Start dialing (the connection maintains itself); returns
    immediately.  [backoff_seed]/[shaper] as in {!dial}. *)

val handshake : ?deadline_ms:float -> t -> client -> (bytes, [ `Timeout ]) result
(** Pump until the connection is established; returns the peer's
    handshake reply payload (the most recent one, if it re-established
    meanwhile). *)

val last_handshake : client -> bytes option
(** The peer's most recent handshake reply payload.  The connection
    re-runs the handshake on every reconnect, and each reply is a fresh
    value, so a caller can tell a new one by physical inequality. *)

val send_batch : client -> bytes -> unit
(** Queue one payload toward the peer (sent once established). *)

val recv_batch :
  ?deadline_ms:float ->
  ?grace_ms:float ->
  t ->
  client ->
  (bytes, [ `Timeout | `Dropped ]) result
(** The next incoming payload, pumping the loop as needed.  [`Dropped]
    means the connection was lost while waiting — with a lockstep
    protocol, whatever reply was owed is gone and the round must be
    retried (the connection itself keeps redialing).  [grace_ms] adds
    flap tolerance: on a drop, keep pumping for up to that long (capped
    by [deadline_ms]) before giving up — a peer that held our reply in
    an outbox re-delivers it over the healed link, and the round
    survives the flap. *)

val close_client : t -> client -> unit
