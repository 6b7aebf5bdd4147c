(** The transport endpoint: one event loop, its listeners and
    connections, aggregated wire counters, and the telemetry bridge.

    One way to hold a connection: callbacks on the loop.  A chain server
    [listen]s for its upstream hop, and every tier that dials a hop (a
    server its successor, the coordinator the first server) does so
    with [dial], through the core library's [Remote].  Frames are
    handled in loop callbacks, and everything is driven with
    [run_once]/[run_until].

    An endpoint is either on sockets and the wall clock ({!create}: one
    per process of a multi-process chain) or {!in_process}: every
    server of an in-process chain and its coordinator share one
    endpoint whose links pass frames in memory and whose loop runs on a
    virtual clock ({!Evloop}), so stalls, graces and redials cost no
    wall time and replay from the seed.  The API is the same. *)

type t

val create : ?telemetry:Vuvuzela_telemetry.Telemetry.t -> unit -> t
(** Sockets on the wall clock.  Also ignores [SIGPIPE] process-wide: a
    peer death must surface as a write error on that connection, not
    kill the process. *)

val in_process : ?telemetry:Vuvuzela_telemetry.Telemetry.t -> unit -> t
(** In-memory links on a virtual clock.  Addresses are names on this
    endpoint only: [listen] binds nothing and [dial] reaches the
    endpoint's own listeners ({!Conn.serve}). *)

val loop : t -> Evloop.t
val stats : t -> Conn.stats
(** Aggregated over every connection this endpoint created or
    accepted. *)

val now_ms : t -> float
(** The loop's clock ({!Evloop.now_ms}). *)

val skipped_ms : t -> float
(** Virtual time skipped so far ({!Evloop.skipped_ms}). *)

val sleep : t -> ms:float -> unit
(** {!Evloop.sleep}: block on sockets, skip the clock in process. *)

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
  on_accept:(Conn.t -> Unix.sockaddr -> unit) ->
  on_frame:(Conn.t -> bytes -> unit) ->
  on_drop:(Conn.t -> unit) ->
  unit ->
  (listener, string) result
(** Listen on [addr]: on sockets, bind ([SO_REUSEADDR]) + listen,
    non-blocking.  Each accepted connection ({!Conn.of_fd}, or the
    in-memory end) gets [on_frame] and [on_drop] and is handed to
    [on_accept] before its first frame, with the peer's address (in
    memory, the listening one).  [Error] carries the
    bind/listen failure (the caller decides whether a sandbox without
    sockets is fatal). *)

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
