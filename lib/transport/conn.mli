(** One framed connection, as a state machine on the {!Evloop}.

    A connection runs over a TCP socket or, in the in-process
    deployment, over an in-memory link on a {!hub}.  The state machine
    is the same on both: dial, handshake, redial schedule, shaper,
    send queue and {!stats} behave alike.  Only the medium differs.  On
    a socket a frame is length-prefixed ({!Frame}), read through a
    decoder and written in coalesced buffers.  In memory the payload
    [bytes] the sender passed are what the receiver gets, one posted
    loop task per frame, never inside {!send}; {!stats} still count the
    bytes a socket would have carried.  Closing one end is an EOF at
    the other, after every frame sent before it.

    Two flavours share the type:

    - a {e dialed} connection ([dial]) owns its remote address and keeps
      itself alive: non-blocking connect, a handshake (send the given
      hello frame, wait for the peer's reply frame), then established.
      Any failure — refused, reset, EOF, handshake timeout, a poisoned
      frame stream — tears the socket down and redials under bounded
      exponential backoff (see {!dial}).  Frames sent while not
      established queue and flush, in order, once the handshake
      completes, so a caller can treat [send] as fire-and-forget across a
      peer restart.
    - an {e accepted} connection ([of_fd], or the end {!serve} creates
      for each dialer) is established immediately and never
      reconnects; the acceptor interprets the peer's hello itself as
      the first frame.

    All sockets get [TCP_NODELAY] (a round is latency-bound on small
    frames) and are non-blocking; all I/O happens inside loop
    callbacks.  Every time the connection reads — handshake bound,
    backoff, shaper, outage length — is the loop's clock. *)

type t

type state = Connecting | Handshaking | Established | Closed

type stats = {
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable reconnects : int;  (** redial attempts after the first *)
  mutable outages : int;
      (** established → lost → re-established cycles completed *)
  mutable last_outage_ms : float;
      (** how long the most recent completed outage lasted on the
          loop's clock — the recovery latency of a reconnect storm *)
  mutable shaped_frames : int;  (** frames the link shaper delayed *)
  mutable shaped_delay_ms : float;  (** total emulated delay injected *)
}
(** Shared wire counters (a {!Transport} endpoint aggregates these
    across its connections). *)

val fresh_stats : unit -> stats

type hub
(** An in-process network: the addresses listening on it, each linking
    a dialer to a fresh accepted end in memory. *)

val hub : unit -> hub

val dial :
  loop:Evloop.t ->
  addr:Unix.sockaddr ->
  hello:bytes ->
  ?hub:hub ->
  ?stats:stats ->
  ?backoff_seed:string ->
  ?shaper:Shaper.t ->
  on_established:(t -> bytes -> unit) ->
  on_frame:(t -> bytes -> unit) ->
  on_drop:(t -> unit) ->
  unit ->
  t
(** [on_established] receives the peer's handshake reply payload (each
    time the connection (re-)establishes); [on_frame] every later
    payload; [on_drop] fires when an {e established} connection is lost
    (the redial loop continues on its own).

    The schedule is fixed.  Connect + hello/reply must finish within
    5 s.  Each failure redials after the backoff cap, which starts at
    1 ms and doubles per failure up to 1 s: a peer still starting is
    retried within milliseconds, a dead one once a second.  The cap
    returns to 1 ms only when an established stream that stayed up for
    at least 1 s drops, not on a completed handshake, so a long-lived
    link that flaps costs ~1 ms plus one handshake, while a peer that
    answers the hello and hangs up at once is redialed ~11 times in the
    first second and then once a second.  With [backoff_seed] each
    retry sleeps a {e full-jitter} draw, uniform in [\[1 ms, cap)] from
    a DRBG seeded with it — reproducible, but a fleet of seeded dialers
    no longer redials a restarted server in lockstep.  Without a seed
    the delay is exactly the cap.

    [shaper] emulates this link's WAN characteristics: each outgoing
    frame (the hello excepted) is held back by {!Shaper.delay_ms} before
    it may reach the wire. *)

val of_fd :
  loop:Evloop.t ->
  fd:Unix.file_descr ->
  ?stats:stats ->
  ?shaper:Shaper.t ->
  on_frame:(t -> bytes -> unit) ->
  on_drop:(t -> unit) ->
  unit ->
  t

val serve :
  hub ->
  loop:Evloop.t ->
  addr:Unix.sockaddr ->
  ?stats:stats ->
  on_accept:(t -> unit) ->
  on_frame:(t -> bytes -> unit) ->
  on_drop:(t -> unit) ->
  unit ->
  unit
(** Listen on [addr] of the hub: each dial there creates an accepted
    end with these callbacks and hands it to [on_accept] before any
    frame arrives.  A later [serve] on the same address replaces this
    one. *)

val send : t -> bytes -> unit
(** Queue one payload (framed internally).  On a dialed connection the
    queue survives reconnects — only a frame already partially on the
    wire when the socket died is dropped (the peer's view of it is
    unknowable; recovery is the round supervisor's retry).  On a closed
    connection this is a no-op.
    @raise Invalid_argument if the payload exceeds {!Frame.max_payload},
    on either medium. *)

val state : t -> state

val reconnects : t -> int

val close : t -> unit
(** Final: close the socket, cancel timers, stop redialing. *)
