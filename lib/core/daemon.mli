(** One chain server on an event loop: the engine behind the
    [vuvuzela-server] executable (and the forked processes of the
    loopback tests), and each server of the in-process {!Chain}, which
    runs N of them on one in-memory {!Vuvuzela_transport.Transport}.

    Topology is the paper's §7 chain: the daemon listens for exactly
    one upstream peer (the coordinator, or the previous server) and —
    unless it is the last server — dials [next] through a {!Remote}, the
    same link end the coordinator dials the first server with.  Key
    material assembles bottom-up at handshake time: the last server
    derives its keys immediately; every other server learns the
    downstream public keys from its link's first handshake, and only
    then creates its own {!Server} and starts answering its own
    upstream handshake.  A restarted server re-derives everything from
    its seed and rejoins the same way, which is what lets the
    supervisor's retry outlast a crash.

    A server restarted from another seed (or from none) rejoins with
    another key, which every onion already wrapped to the old one fails
    against.  The link compares each re-handshake with the keys in use
    and counts a change in [vuvuzela_daemon_key_changes_total]; while
    it stands, the daemon answers every later round (and any round in
    flight) with the non-retryable {!Rpc.key_change} instead of running
    it.

    Churn resilience: frames owed upstream while that link is down wait
    in a bounded outbox and are flushed (after the handshake reply) when
    the peer reconnects.  The downstream link applies the coordinator's
    grace rule: a round in flight when the link drops survives if its
    reply arrives within [flap_grace_ms], and is otherwise answered
    upstream with a retryable [transport] status when the grace ends —
    so a flap costs latency, and a lost batch costs the grace and one
    retry, not the coordinator's deadline.

    A batch arrives as part frames, one round at a time.  Part 0 fires
    this daemon's faults ([fault_plan]; a process's entries must name
    [server = index]) against the whole logical batch and opens the
    round; each part is then sequence-checked, tampered at its absolute
    slots, shown to [tap] and peeled as it lands, and the last part
    finishes the round.  The daemon applies each fault's
    {!Vuvuzela_faults.Fault.effects}: a delay or stall sleeps through the
    loop (real time on sockets, skipped time on the in-process chain's
    virtual clock, where all servers share the loop); a reset closes the
    upstream connection once the batch has landed (after a [Flap] the
    reply waits in the outbox, counted in
    [vuvuzela_daemon_outbox_frames_total]); a lost batch is swallowed,
    and the link above answers it when its grace ends after a reset, or
    the coordinator's deadline — in process, the idle loop — notices; a
    frame edit damages part 0, and the round runs on what it decodes
    to.  A part that breaks the protocol (undecodable, of another kind
    or round, a sequence gap) is answered upstream with a [Status], and
    the round's later parts are ignored.  Fired faults are counted in
    [/metrics]. *)

type config = {
  listen : Unix.sockaddr;
  next : Unix.sockaddr option;  (** [None] for the last server *)
  index : int;  (** 0-based chain position *)
  deployment : Config.t;
      (** the deployment this daemon is one position of, read as
          {!Chain.of_config} reads it: [n_servers] is the chain length,
          and seed, noise, dialing kind, jobs, dead-drop shards and the
          part size ({!Config.part_chunk}) derive this position's
          server, so a multi-process chain with seed [s] is
          bit-identical to an in-process chain from the same
          [Config.t].  The daemon also reads [fault_plan], [tap], [link] (the
          emulated WAN profile of the downstream link, jitter seeded per
          link from [seed]), [flap_grace_ms] (how long after the
          downstream link drops the round in flight may wait for its
          reply before it is answered with a retryable [Status]; [0.]
          answers on the drop) and [telemetry]. *)
  metrics_listen : Unix.sockaddr option;
      (** mount the scrape endpoints on this address (the
          [--metrics-listen] flag): [/metrics] is the daemon's own
          registry in Prometheus text format, [/healthz] a JSON liveness
          document (chain position, peer connectivity, round progress,
          uptime), [/trace] the span trace as JSONL for the
          coordinator's merge.  Served from the daemon's own select
          loop; requests never block the round pipeline.  When set (or
          when [trace_out] is), a telemetry sink with merge origin
          [index + 1] is created if the deployment carries none. *)
  trace_out : string option;
      (** write the daemon's span trace (JSONL, one span per line) to
          this path on shutdown *)
}

type t
(** A started daemon. *)

val start :
  Vuvuzela_transport.Transport.t ->
  ?pool:Vuvuzela_parallel.Pool.t ->
  ?faults:Vuvuzela_faults.Fault.injector ->
  ?log:(string -> unit) ->
  config ->
  (t, string) result
(** Listen on [listen] and dial [next] on this endpoint, and return: the
    owner drives the loop.  [pool] and [faults] are shared by the
    servers of one process (default: sequential, and no faults); the
    owner joins the pool after {!close}.  [Error] as {!run}'s startup
    failures. *)

val server : t -> Server.t option
(** The server, once the downstream keys are known. *)

val close : t -> unit
(** Close both links (and the scrape endpoints) and write
    [trace_out]. *)

val run : ?log:(string -> unit) -> config -> (unit, string) result
(** Run until a [Bye] arrives from upstream (forwarded down the chain
    first), then close and return.  The daemon's pool, of the
    deployment's [jobs] domains, lives exactly as long as this call.
    [Error] only for startup failures (bad config, cannot bind
    [listen]) — runtime link failures are survived: upstream may
    disconnect and re-accept, downstream redials under backoff. *)
