(** The chain of Vuvuzela servers in one process: N {!Daemon}s — the
    server code of a multi-process deployment — and the coordinator's
    {!Remote}, on one in-process {!Vuvuzela_transport.Transport} whose
    links pass frames in memory and whose loop runs on a virtual clock.
    A round crosses every link as the same frames, with the same outbox,
    grace rule and redials, as over TCP; stalls, graces and redials
    cost no wall time and replay from the seed. *)

type t

val of_config : Config.t -> t
(** Build a chain from a {!Config.t} and wait for its keys to assemble.
    With [seed] the whole deployment (keys, noise, shuffles, link
    jitter, redials) is deterministic, for tests.  [jobs] sets the
    domain count for the per-onion crypto; the servers share one pool.
    Every batch crosses every link as [*_batch_part] frames: with
    [pipeline] each part holds at most [pipeline_chunk] onions, without
    it a link carries one part per batch (per producer chunk at the
    entry link).  Round results are bit-identical at any job count and
    part size, and to a multi-process chain from the same [Config.t].

    [fault_plan], [tap], [link] and [flap_grace_ms] act exactly as on
    the daemons, with one fault injector for all servers: each fault
    fires once at its (round, server) site against the whole logical
    batch, and the receiver acts on the frame it decoded.  A stall
    advances the virtual clock, a reset closes the in-memory upstream
    link (the dialer redials), and a lost batch is swallowed: the
    upstream link's grace answers it after a reset, the idle loop after
    a [Drop_link].  [tap] observes every forward part as the receiver
    decoded it, after any [Tamper_slot] fault, so tests can assert
    wire-level invariants such as "no onion ciphertext crosses twice".
    Rounds run without a deadline ({!Network} sets one on {!remote}).

    [telemetry] (default: the nil sink) is shared with every server:
    each daemon opens a [hop] span per round, under the coordinator's
    round root when {!Network} opens one, with the per-stage server
    spans beneath it; fired faults are counted
    ([vuvuzela_faults_injected_total{kind}], stall time also in
    [vuvuzela_injected_delay_ms_total]) and annotated on the innermost
    open span.  Instrumentation never draws from the RNG — rounds are
    bit-identical with telemetry on or off.
    @raise Invalid_argument on [n_servers < 1] or [jobs < 1]. *)

val server : t -> int -> Server.t

val jobs : t -> int
(** The chain's configured degree of parallelism. *)

val remote : t -> Remote.t
(** The coordinator's link to server 0, on the chain's loop. *)

val shutdown : t -> unit
(** Send [Bye] down the chain, close every link, join the shared worker
    domains, if any, and mark the chain finished.  Idempotent.  Rounds
    attempted afterwards return the typed {!Rpc.chain_shutdown} status
    instead of silently running sequentially on servers whose pool is
    gone. *)

val is_shut_down : t -> bool

val pending_faults : t -> int
(** Scheduled faults that have not fired yet (0 without a fault plan). *)

val public_keys : t -> bytes list
(** In chain order; clients wrap onions against these. *)

val conversation_round_streamed :
  t ->
  round:int ->
  produce:((bytes array -> unit) -> unit) ->
  (bytes array, Rpc.status) result
(** {!Remote.conversation_round_streamed} on the chain's link. *)

val dialing_round_streamed :
  t ->
  round:int ->
  m:int ->
  produce:((bytes array -> unit) -> unit) ->
  (bytes array, Rpc.status) result
(** {!Remote.dialing_round_streamed} on the chain's link. *)

val fetch_invitations : ?dial_round:int -> t -> index:int -> bytes list
(** A direct read of the last server's store, not crossing the links.
    Defaults to the most recent dialing round's store; [?dial_round]
    reaches any round inside the last server's retention window. *)

val proposed_m : t -> int
(** The last server's recommended invitation-drop count (§5.4). *)

val observed_histogram : t -> Deaddrop.histogram option
(** The last server's (i.e. the adversary's) view of the latest
    conversation round. *)
