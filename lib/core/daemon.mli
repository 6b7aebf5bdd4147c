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

    Churn resilience: frames owed upstream while that link is down wait
    in a bounded outbox and are flushed (after the handshake reply) when
    the peer reconnects, and a lost downstream link gets [flap_grace_ms]
    to heal before the in-flight round is abandoned — so a connection
    flap that recovers inside the grace costs latency, not the round.

    A [fault_plan] arms the socket-level counterparts of the in-process
    link faults, fired at this daemon's incoming link (plan entries
    must name [server = index]): [Crash] resets the upstream
    connection, [Drop_link] swallows the batch (the coordinator's
    deadline catches it), frame faults mutate the received frame before
    decoding (the typed rejection crosses the wire as a [Status]),
    [Delay_ms] and [Slow_link] stall the process for real,
    [Tamper_slot] flips an onion byte, [Flap] resets the upstream
    socket but keeps the batch (the reply waits in the outbox),
    [Partition] drops the batch and resets the socket. *)

type config = {
  listen : Unix.sockaddr;
  next : Unix.sockaddr option;  (** [None] for the last server *)
  index : int;  (** 0-based chain position *)
  chain_len : int;
  seed : string option;
      (** same derivation as {!Chain.of_config}: a multi-process chain
          with seed [s] is bit-identical to an in-process chain built
          from a {!Config.t} with [seed = Some s] *)
  noise : Vuvuzela_dp.Laplace.params;
  dial_noise : Vuvuzela_dp.Laplace.params;
  noise_mode : Vuvuzela_dp.Noise.mode;
  dial_kind : Dialing.kind;
  jobs : int;
  deaddrop_shards : int;
      (** conversation dead-drop store shards (last server; >= 1) *)
  pipeline_chunk : int option;
      (** [Some chunk]: forward batches leave for the next server as
          [*_batch_part] frames of at most [chunk] onions each, so the
          successor peels early parts while later ones are still in
          flight.  [None]: one part holding the whole batch.  Results
          are bit-identical at any part size. *)
  fault_plan : Vuvuzela_faults.Fault.plan option;
  link : Vuvuzela_transport.Shaper.config option;
      (** emulated WAN characteristics of the downstream link (jitter
          seed derived per link from [seed] when present) *)
  flap_grace_ms : float;
      (** grace for a lost downstream link to heal before the in-flight
          round is abandoned with a [Status]; [0.] restores the old
          abort-on-drop behaviour *)
  metrics_listen : Unix.sockaddr option;
      (** mount the scrape endpoints on this address (the
          [--metrics-listen] flag): [/metrics] is the daemon's own
          registry in Prometheus text format, [/healthz] a JSON liveness
          document (chain position, peer connectivity, round progress,
          uptime), [/trace] the span trace as JSONL for the
          coordinator's merge.  Served from the daemon's own select
          loop; requests never block the round pipeline.  When set (or
          when [trace_out] is), a telemetry sink with merge origin
          [index + 1] is created if the embedder passed none. *)
  trace_out : string option;
      (** write the daemon's span trace (JSONL, one span per line) to
          this path on shutdown *)
}

val run :
  ?telemetry:Vuvuzela_telemetry.Telemetry.t ->
  ?log:(string -> unit) ->
  ?on_ready:(unit -> unit) ->
  config ->
  (unit, string) result
(** Run until a [Bye] arrives from upstream (forwarded down the chain
    first), then shut the server down and return.  [Error] only for
    startup failures (bad config, cannot bind [listen]) — runtime link
    failures are survived: upstream may disconnect and re-accept,
    downstream redials under backoff.  [on_ready] fires once the
    server exists and handshakes can be answered. *)
