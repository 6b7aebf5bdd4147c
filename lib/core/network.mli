(** A complete deployment: chain + entry server + clients + round
    clock, run by a supervisor with deadlines, bounded retries, and
    fault injection for the active adversary.  The chain is in process
    ({!of_config}) or a chain of server processes ({!of_config_tcp});
    either way every round, abort and invitation download crosses the
    coordinator's {!Remote}. *)

module Config = Config
(** The deployment configuration record; see {!Config.default} and the
    [with_*] helpers. *)

type t

val of_config : Config.t -> t
(** An in-process deployment from a {!Config.t}.  Defaults are sized for
    tests (tiny noise); production parameters come from
    {!Vuvuzela_dp.Composition.noise_for_target}.  [jobs] sets the
    chain's crypto parallelism and [pipeline] caps every relay part at
    [pipeline_chunk] onions (without it each link carries one part per
    batch); results are bit-identical at any job count and part size.

    [fault_plan] arms deterministic fault injection at the servers'
    incoming links, [tap] observes every forward batch on the wire, and
    [link] and [flap_grace_ms] shape and guard every link, on the
    chain's virtual clock (see {!Chain.of_config}).
    [round_deadline_ms] ([None]: no deadline) bounds each round attempt
    on that clock — wall time plus the time it skipped for stalls,
    graces and redials — and [max_retries] bounds how many times the
    supervisor retries an aborted round before giving up.  The record
    fixes the supervisor for the deployment's lifetime; only the
    admission window can change later ({!set_admission_ms}).

    [telemetry] (default: the nil sink) is shared down the stack (chain,
    servers): per-stage spans, round spans, client-build/client-decrypt
    spans, round latency/wire-byte/outcome metrics — latency histograms
    record the chain's wall clock only: the clients' [client-build]
    span ends before the round span starts, and skipped virtual time is
    left out (injected stall has its own counter) — and a privacy-budget
    ledger composing
    the deployment's per-round guarantees under Theorem 2, charged per
    client per attempt.  [budget_warn] sets the ledger's cumulative-ε′
    warning threshold.  Instrumentation never draws from the RNG: a seeded
    deployment is bit-identical with telemetry on or off. *)

val of_config_tcp : Config.t -> addr:Unix.sockaddr -> (t, string) result
(** The coordinator of a multi-process deployment (§7): dial the first
    [vuvuzela-server] daemon at [addr], learn the chain's public keys
    from the handshake, and run the same supervisor over TCP.  With a
    shared deployment seed the rounds are bit-identical to
    {!of_config}'s.

    The servers are the same daemons the in-process chain runs, so
    rounds, faults, graces and deadlines behave alike.  Differences
    from the in-process deployment: time is the wall clock (a stall or
    a grace takes real time); [noise]/[dial_noise] here only
    parameterise the privacy-budget ledger (the daemons own the actual
    noise — pass their parameters); [fault_plan]/[link]/[flap_grace_ms]
    of the daemons' links live in the daemons ([--fault-plan],
    [--link-latency], [--flap-grace-ms]), and [tap] is not reachable;
    [jobs] is inert (each daemon configures its own); and
    {!set_auto_tune_drops} is inert (the wire protocol does not carry
    the last server's §5.4 recommendation).  [link] and [flap_grace_ms]
    still shape and guard the coordinator's own link.  With [pipeline]
    set, no part leaving the coordinator holds more than
    [pipeline_chunk] onions.  [Error] if the chain cannot be reached
    within [handshake_timeout_ms]. *)

val chain : t -> Chain.t
(** The in-process chain.
    @raise Invalid_argument on an {!of_config_tcp} deployment — the
    servers live in other processes. *)

val is_remote : t -> bool
(** [true] iff this deployment came from {!of_config_tcp}. *)

val jobs : t -> int
(** The chain's crypto parallelism ([1] for a TCP deployment — the
    daemons configure their own). *)

val shutdown : t -> unit
(** Finalize the observability collector first, if one was configured
    ({!Config.t.obs_dir}) — the daemon scrape must precede the Bye
    cascade — then join the chain's worker domains, if any, and mark
    the chain finished: subsequent rounds fail with the typed
    {!Rpc.chain_shutdown} status (never retried).  Idempotent. *)

val round : t -> int
val dial_round : t -> int

val set_invitation_drops : t -> int -> unit
(** Set [m] for subsequent dialing rounds (§5.4 tuning). *)

val invitation_drops : t -> int

val set_auto_tune_drops : t -> bool -> unit
(** Adopt the last server's §5.4 m-recommendation after each dialing
    round. *)

val set_admission_ms : t -> float option -> unit
(** Replace the entry-server admission window ({!Config.t.admission_ms})
    for later attempts: participants whose emulated arrival
    ({!Config.t.client_latency}, one seeded draw per participant per
    attempt, in connection order) exceeds it are excluded from the
    round — their requests arrive after it closed, and what they
    carried is requeued for the next round with a [Round_late] event.
    [None] admits everyone. *)

val entry_chunk : t -> int
(** Onions per entry chunk (= [Config.pipeline_chunk]): every round's
    requests reach the chain through one streaming {!Entry} collector
    that feeds it in chunks of this size ({!Remote.round_streamed}), so
    no tier ever holds the whole batch;
    the report's [peak_buffered] shows the bound. *)

val connect :
  ?seed:string ->
  ?window:int ->
  ?rtt:int ->
  ?max_conversations:int ->
  ?certified:Client.certified_config ->
  t ->
  Client.t
(** Add a client; with [seed], its identity and randomness are
    deterministic. *)

val find_client : t -> bytes -> Client.t option

type round_report = {
  round : int;  (** the round number of the last attempt *)
  dialing : bool;
  events : (Client.t * Client.event list) list;
      (** per participating client, in connection order; for dialing
          rounds, only clients with incoming calls appear.  On a failed
          report these are the per-client [Round_failed] notifications
          instead. *)
  batch_size : int;
      (** requests the admitted clients built for the last attempt:
          what the entry server forwarded, or would have *)
  peak_buffered : int;
      (** most onions the entry server held at once: at most
          {!entry_chunk} (the scale plane's memory bound); [0] when the
          attempt failed before intake began *)
  admitted : int;
      (** clients inside the last attempt's admission window (= all
          participants when no window is configured) *)
  late : int;
      (** clients excluded as stragglers on the last attempt; each got
          a [Round_late] event and its payload was requeued *)
  wire_bytes : int;
      (** batch bytes on the entry → first-server link
          ({!Rpc.conv_batch_bytes}/{!Rpc.dial_batch_bytes}): items plus
          one batch header, whatever the part framing *)
  elapsed_ms : float;
      (** every attempt's chain round trip on the coordinator's loop
          clock, summed, so a retried round counts the time its failed
          attempts took: wall time, plus (in process) the time the
          virtual clock skipped for stalls, graces and redials; the
          clients' onion build comes before each attempt and is not
          counted *)
  confirmed_acks : int;
      (** dialing rounds: acks that unwrapped to the expected fixed
          plaintext; [0] for conversation rounds *)
  attempts : int;  (** total attempts made, [1] when nothing failed *)
  aborts : Rpc.status list;
      (** each failed attempt's status, in order; non-empty with
          [failure = None] means a retry recovered the round *)
  failure : Rpc.status option;
      (** set iff the round ultimately failed, after exhausting retries
          or hitting a non-retryable status (= last element of
          [aborts]) *)
}
(** What one round did — load accounting, the supervisor's attempt
    history, and failure surfacing alongside the per-client events. *)

val events_of : round_report list -> (Client.t * Client.event list) list
(** Flatten reports to their protocol events, in round order.  Failed
    reports are skipped (their events are [Round_failed] notifications,
    not protocol traffic); collect those with {!failures_of}. *)

val failures_of : round_report list -> Rpc.status list
(** The statuses of the rounds that ultimately failed, in round order. *)

val pp_round_report : Format.formatter -> round_report -> unit
(** One stable line per report — same fields, same order, success or
    failure:
    {v
conv round 3: 8 requests, 12345 B wire, 4.2 ms, attempts=1, aborts=0, admitted=8, late=0
dialing round 1: 8 requests, 2345 B wire, 1.3 ms, 8 acks, attempts=2, aborts=1, admitted=8, late=0
conv round 5 FAILED: 8 requests, 12345 B wire, 3.1 ms, attempts=3, aborts=3, admitted=8, late=1 (...)
    v} *)

val run :
  ?blocked:(Client.t -> bool) ->
  ?late:(Client.t -> bool) ->
  kind:Round.kind ->
  t ->
  round_report
(** Run one round of the given kind under the supervisor; [blocked]
    clients send nothing (the §2.1 active attack, or an outage), while
    [late] clients send but are forced past the admission window — the
    entry server excludes them exactly as if their arrival draw had
    missed {!set_admission_ms} (useful for deterministic tests).  A
    failed attempt is aborted on every server and client, then retried
    under a fresh round number with freshly built requests (fresh
    ephemeral keys — a stored onion is never re-submitted) and freshly
    drawn noise, at most [max_retries] times.  A results batch of the
    wrong length fails the attempt with a [*-results] status from
    server 0; it never raises.

    [Conversation]: each client submits [max_conversations] exchange
    requests (one slot each, §9) and decrypts the slot replies.

    [Dialing]: each client submits an invitation or no-op, confirms the
    chain's ack, then downloads and scans every completed dialing round
    it has not seen yet (within the last server's retention window), so
    a client blocked across dialing rounds still receives its
    invitations later.  An aborted attempt requeues each participant's
    invitation for the retry. *)

val run_rounds :
  ?blocked:(Client.t -> bool) ->
  ?late:(Client.t -> bool) ->
  t ->
  int ->
  round_report list
