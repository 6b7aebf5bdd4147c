(** The transport endpoint: one event loop, its listeners and
    connections, aggregated wire counters, and the telemetry bridge.

    One way to hold a connection: callbacks on the loop.  A chain server
    [listen]s for its upstream hop, and every process that dials a hop
    (a server its successor, the coordinator the first server) does so
    with [dial], through the core library's [Remote].  Frames are
    handled in loop callbacks, and everything is driven with
    [run_once]/[run_until]. *)

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
  ?backoff_seed:string ->
  ?shaper:Shaper.config ->
  on_established:(Conn.t -> bytes -> unit) ->
  on_frame:(Conn.t -> bytes -> unit) ->
  on_drop:(Conn.t -> unit) ->
  unit ->
  Conn.t
(** {!Conn.dial} wired to this endpoint's loop and counters.  The
    handshake bound and the redial schedule are {!Conn.dial}'s fixed
    ones: a failed link is redialed within milliseconds and backs off
    only while it keeps failing, and a link that hangs up soon after
    its handshake keeps backing off.  [backoff_seed] enables seeded
    full-jitter reconnect backoff; [shaper] emulates the link's WAN
    characteristics (ignored when {!Shaper.is_transparent}). *)
