(** One chain server as its own OS process: the engine behind the
    [vuvuzela-server] executable (and the forked processes of the
    loopback tests).

    Topology is the paper's §7 chain: the daemon listens for exactly
    one upstream peer (the coordinator, or the previous server) and —
    unless it is the last server — maintains one dialed connection to
    [next].  Key material assembles bottom-up at handshake time: the
    last server derives its keys immediately; every other server dials
    its successor, learns the downstream public keys from the
    [Chain_info] reply, and only then creates its own {!Server} and
    starts answering its own upstream handshake.  A restarted server
    re-derives everything from its seed and rejoins the same way, which
    is what lets the supervisor's retry outlast a crash.

    A server restarted from another seed (or from none) rejoins with
    another key, which every onion already wrapped to the old one fails
    against.  Each downstream re-handshake is therefore compared with
    the keys in use: on a change the daemon logs it, counts it in
    [vuvuzela_daemon_key_changes_total], and answers every later round
    (and any round in flight) with the non-retryable {!Rpc.key_change}
    instead of running it, until a handshake announces the keys in use
    again.

    Churn resilience: frames owed upstream while that link is down wait
    in a bounded outbox and are flushed (after the handshake reply) when
    the peer reconnects, and a lost downstream link gets [flap_grace_ms]
    to heal before the in-flight round is abandoned — so a connection
    flap that recovers inside the grace costs latency, not the round.

    Batches arrive through the same {!Hop} state machine the in-process
    {!Chain} drives, so a [fault_plan] (entries must name
    [server = index]) fires with the same semantics at this daemon's
    incoming link; only the mapping onto sockets is the daemon's own.
    A stall ([Delay_ms], [Slow_link], a [Flap] or [Partition] outage)
    sleeps for real, a reset ([Crash], [Flap], [Partition]) closes the
    upstream connection (after a [Flap] the reply waits in the outbox),
    a lost batch ([Crash], [Drop_link], [Partition]) is swallowed for
    the coordinator's deadline to notice, and a rejected part (frame
    faults that break decoding, a [seq] gap) answers upstream with its
    [Status].  Fired faults are counted in [/metrics]. *)

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
          [Config.t].  The daemon also reads [fault_plan], [link] (the
          emulated WAN profile of the downstream link, jitter seeded per
          link from [seed]), [flap_grace_ms] (grace for a lost
          downstream link to heal before the in-flight round is
          abandoned with a [Status]; [0.] aborts on the drop) and
          [telemetry]. *)
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

val run : ?log:(string -> unit) -> config -> (unit, string) result
(** Run until a [Bye] arrives from upstream (forwarded down the chain
    first), then shut the server down and return.  [Error] only for
    startup failures (bad config, cannot bind [listen]) — runtime link
    failures are survived: upstream may disconnect and re-accept,
    downstream redials under backoff. *)
