(** The chain of Vuvuzela servers and in-process round orchestration. *)

type t

val of_config : Config.t -> t
(** Build a chain from a {!Config.t}.  With [seed] the whole deployment
    (keys, noise, shuffles) is deterministic, for tests.  [jobs] sets
    the domain count for the per-onion crypto; the servers share one
    pool.  Every batch crosses every link as [*_batch_part] frames, the
    same code path a TCP deployment runs: with [pipeline] each part
    holds at most [pipeline_chunk] onions, without it a link carries
    one part per batch (per producer chunk at the entry link).  Round
    results are bit-identical at any job count and any part size.

    Each server is driven through its {!Hop}, the state machine a daemon
    runs too, so [fault_plan] faults behave as they do over TCP: each
    fires once at its (round, server) site against the whole logical
    batch, and the receiver acts on the frame it decoded.  In process a
    stall is virtual delay ({!last_round_delay_ms}), a lost batch is an
    [Error] status, and a reset has no socket to close.  [tap] observes
    every forward part as the receiver decoded it, after any
    [Tamper_slot] fault, so tests can assert wire-level invariants such
    as "no onion ciphertext crosses twice".

    [telemetry] (default: the nil sink) is shared with every server: each
    round gets a root span ([conv-round] / [dial-round]) with the
    per-stage server spans beneath it, and fired faults are counted
    ([vuvuzela_faults_injected_total{kind}], with [Delay_ms] stall also
    accumulated into [vuvuzela_injected_delay_ms_total]) and annotated
    on the innermost open span.  Instrumentation never draws from the
    RNG — rounds are bit-identical with telemetry on or off.
    @raise Invalid_argument on [n_servers < 1] or [jobs < 1]. *)

val length : t -> int
val server : t -> int -> Server.t

val jobs : t -> int
(** The chain's configured degree of parallelism. *)

val shutdown : t -> unit
(** Join the shared worker domains, if any, and mark the chain finished.
    Idempotent.  Rounds attempted afterwards return the typed
    {!Rpc.chain_shutdown} status instead of silently running
    sequentially on servers whose pool is gone. *)

val is_shut_down : t -> bool

val last_round_delay_ms : t -> float
(** Virtual link stall accumulated by fired faults ([Delay_ms] and the
    churn kinds) during the most recent round (0 when none fired).  The supervisor adds
    this to the measured wall-clock time before its deadline check, so
    deadline misses are deterministic under a fixed seed. *)

val pending_faults : t -> int
(** Scheduled faults that have not fired yet (0 without a fault plan). *)

val public_keys : t -> bytes list
(** In chain order; clients wrap onions against these. *)

val round_streamed :
  t ->
  kind:Round.kind ->
  m:int ->
  round:int ->
  produce:((bytes array -> unit) -> unit) ->
  (bytes array, Rpc.status) result
(** The one round path, for either kind ([m] invitation drops; ignored
    for conversation rounds): [produce feed] pushes the batch as
    slot-ordered chunks (a streaming {!Entry} collector's sink) and
    returns when the intake is complete.  Each chunk is normalized by
    {!Entry.normalize} and crosses into server 0 as it is fed (with one
    part of lookahead, so the final part carries [last]), so no tier
    materializes the whole onion batch.  Results depend only on the
    chunk concatenation.  Faults for the entry link fire once against
    the logical batch, like every other link's.  The result array is
    slot-aligned with the fed requests; [Error] carries the typed
    status of the first link whose batch failed. *)

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

val conversation_round_exn : t -> round:int -> bytes array -> bytes array
(** A conversation round on a materialized batch (one producer chunk),
    raising [Failure] on a status frame. *)

val dialing_round_exn : t -> round:int -> m:int -> bytes array -> bytes array

val fetch_invitations : ?dial_round:int -> t -> index:int -> bytes list
(** Defaults to the most recent dialing round's store; [?dial_round]
    reaches any round inside the last server's retention window. *)

val abort : t -> kind:Round.kind -> round:int -> unit
(** Discard a failed round's state on every server, so the supervisor's
    retry (under a fresh round number, with freshly drawn noise) starts
    clean; a dialing round also loses its invitation store. *)

val proposed_m : t -> int
(** The last server's recommended invitation-drop count (§5.4). *)

val observed_histogram : t -> Deaddrop.histogram option
(** The last server's (i.e. the adversary's) view of the latest
    conversation round. *)
