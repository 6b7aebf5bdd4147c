(** Deployment configuration — the one record behind {!Chain.of_config},
    {!Network.of_config} and {!Network.of_config_tcp}.

    Build one with {!default} and the [with_*] helpers:
    {[
      Config.(default |> with_seed "demo" |> with_jobs 4
              |> with_pipeline true)
    ]} *)

type t = {
  seed : string option;
      (** deployment seed: keys, noise and shuffles become a pure
          function of it (tests); [None] draws from the system RNG *)
  n_servers : int;
  noise : Vuvuzela_dp.Laplace.params;  (** conversation noise (µ, b) *)
  dial_noise : Vuvuzela_dp.Laplace.params;  (** per-invitation-drop noise *)
  noise_mode : Vuvuzela_dp.Noise.mode;
  dial_kind : Dialing.kind;
  jobs : int;  (** domains for the per-onion crypto; [1] = sequential *)
  pipeline : bool;
      (** relay batches between servers as parts of [pipeline_chunk]
          onions so a receiver peels while the rest of the batch is
          still in flight; without it a link carries one part per batch.
          Results are bit-identical either way *)
  pipeline_chunk : int;
      (** onions per relay part when [pipeline] is set, and per entry
          chunk always (≥ 1) *)
  deaddrop_shards : int;
      (** conversation dead-drop store shards (≥ 1): drops are routed
          by id prefix and [exchange] pair-matches per shard over the
          domain pool; results are bit-identical for any count *)
  cdn_edges : int;  (** §5.5 invitation-drop distribution; [0] = none *)
  fault_plan : Vuvuzela_faults.Fault.plan option;
  tap : (round:int -> server:int -> bytes array -> unit) option;
      (** observes every forward part as it crosses a link
          (post-tamper, pre-framing) *)
  telemetry : Vuvuzela_telemetry.Telemetry.t option;
  budget_warn : float option;  (** ledger cumulative-ε′ warning threshold *)
  round_deadline_ms : float option;
      (** supervisor deadline per attempt; [None] disables the check *)
  max_retries : int;  (** extra attempts after the first (≥ 0) *)
  handshake_timeout_ms : float;  (** TCP deployments only *)
  admission_ms : float option;
      (** entry-server admission window per round: clients whose
          (emulated) arrival exceeds it are excluded from the round and
          told to re-wrap for the next one; [None] admits everyone *)
  client_latency : (float * float) option;
      (** [(base_ms, jitter_ms)] emulated client → entry arrival delay;
          drawn per client per round from the deployment DRBG when
          [seed] is set, so admission outcomes replay bit-identically *)
  flap_grace_ms : float;
      (** how long a dropped server link may stay down mid-round before
          the attempt is abandoned; [0.] aborts on the first drop *)
  link : Vuvuzela_transport.Shaper.config option;
      (** emulated WAN characteristics of every chain link; also widens
          the effective round deadline by the links' RTT budget *)
  obs_dir : string option;
      (** observability collection directory (the [--obs-dir] mode):
          {!Network} appends one JSONL event per round, and shutdown
          writes the coordinator trace/metrics, scrapes the daemons
          named in [obs_scrape], merges the traces, and renders a
          per-round digest.  See {!Obs}.  Requires [telemetry] for
          traces; the event log works without it. *)
  obs_scrape : (int * Unix.sockaddr) list;
      (** [(server index, metrics address)] scrape targets — each
          daemon's [--metrics-listen] address — collected into [obs_dir]
          at shutdown *)
}

val default : t
(** Test-sized defaults: 3 servers, tiny sampled noise, sequential,
    one whole-batch part per link, no faults, no telemetry, 2 retries. *)

(** Functional updates, pipeline-friendly (value first, record last). *)

val with_seed : string -> t -> t
val with_n_servers : int -> t -> t
val with_noise : Vuvuzela_dp.Laplace.params -> t -> t
val with_dial_noise : Vuvuzela_dp.Laplace.params -> t -> t
val with_noise_mode : Vuvuzela_dp.Noise.mode -> t -> t
val with_dial_kind : Dialing.kind -> t -> t
val with_jobs : int -> t -> t

val with_pipeline : ?chunk:int -> bool -> t -> t
(** Enable/disable chunked relay parts; [chunk] (default
    {!default}[.pipeline_chunk], clamped ≥ 1) sets the onions per part. *)

val part_chunk : t -> int option
(** The relay part size every tier uses: [Some pipeline_chunk] with
    [pipeline], [None] (one part per batch, or per producer chunk on
    the entry link) without. *)

val with_deaddrop_shards : int -> t -> t
(** Shard count for the conversation dead-drop store (clamped ≥ 1). *)

val with_entry_streaming : bool -> t -> t
(** The identity: the entry tier always streams, in [pipeline_chunk]
    chunks.  Kept for its one caller, [benchmark/run.ml]; do not add
    new ones. *)

val with_cdn_edges : int -> t -> t

val with_fault_plan : Vuvuzela_faults.Fault.plan -> t -> t
val with_tap : (round:int -> server:int -> bytes array -> unit) -> t -> t
val with_telemetry : Vuvuzela_telemetry.Telemetry.t -> t -> t
val with_budget_warn : float -> t -> t
val with_round_deadline_ms : float -> t -> t
val with_max_retries : int -> t -> t
val with_handshake_timeout_ms : float -> t -> t
val with_admission_ms : float -> t -> t

val with_client_latency : base_ms:float -> jitter_ms:float -> t -> t
(** Emulated client arrival latency feeding the admission check. *)

val with_flap_grace_ms : float -> t -> t
val with_link : Vuvuzela_transport.Shaper.config -> t -> t
val with_obs_dir : string -> t -> t
val with_obs_scrape : (int * Unix.sockaddr) list -> t -> t
