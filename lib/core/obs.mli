(** Coordinator-side round inspector — the [--obs-dir] collection mode.

    A deployment run with an observability directory leaves behind:

    - [events.jsonl] — one event per completed round (counts, latency,
      admission split, aborts, cumulative privacy spend), appended as
      rounds finish;
    - [trace.jsonl], [metrics.prom], [metrics.json] — the coordinator's
      own telemetry exports;
    - [daemon-I-metrics.prom], [daemon-I-healthz.json],
      [daemon-I-trace.jsonl] — each scrape target's endpoints, fetched
      at {!finalize} while the daemons are still alive;
    - [merged-trace.jsonl] — the per-process traces merged with
      {!Vuvuzela_telemetry.Trace.merge_jsonl}, every daemon hop span
      parenting transitively into the coordinator's round root;
    - [digest.txt] — the human-readable rendering of {!render_digest}.

    Collection is pure control plane: transcripts are bit-identical
    with or without it. *)

type t

val create :
  dir:string -> ?scrape:(int * Unix.sockaddr) list -> unit ->
  (t, string) result
(** Create [dir] (and parents) if needed and open the event log for
    appending.  [scrape] lists [(server index, metrics address)] pairs
    — each daemon's [--metrics-listen] address — collected at
    {!finalize}. *)

val record_round :
  t ->
  kind:string ->
  round:int ->
  attempts:int ->
  batch:int ->
  admitted:int ->
  late:int ->
  wire_bytes:int ->
  elapsed_ms:float ->
  acks:int ->
  aborts:string list ->
  failed:bool ->
  ?budget:float * float ->
  unit ->
  unit
(** Append one round event.  [kind] is ["conv"] or ["dial"]; [aborts]
    holds each failed attempt's rendered status in order; [budget] is
    the ledger's worst-case cumulative [(ε′, δ′)] after this round. *)

val finalize : ?telemetry:Vuvuzela_telemetry.Telemetry.t -> t -> unit
(** Scrape the daemons (they must still be running — call before the
    Bye cascade), write the coordinator's exports from [telemetry],
    merge the traces, close the event log and render [digest.txt].
    Scrape and merge failures are recorded as events, never raised.
    Idempotent. *)

val render_digest : dir:string -> (string, string) result
(** Re-render the per-round digest from an observability directory:
    one line per round plus a hop-by-hop latency waterfall (durations
    from the merged trace — cross-process timestamps are incomparable
    epochs, so only durations are drawn), an abort/late timeline, and
    the cumulative privacy-budget endpoint.  This is the
    [vuvuzela inspect] subcommand; it needs only the files on disk, so
    it works long after the deployment is gone. *)
