(** A Vuvuzela chain server (Algorithm 2): peel, noise, shuffle, forward;
    unshuffle, seal on the way back.  The last server hosts dead drops
    and invitation drops. *)

type metrics = {
  mutable requests_in : int;
  mutable invalid_requests : int;
  mutable duplicate_requests : int;
  mutable noise_singles : int;
  mutable noise_pairs : int;
  mutable noise_invitations : int;
  mutable rounds : int;
}

type t

val create :
  ?pool:Vuvuzela_parallel.Pool.t ->
  Config.t ->
  position:int ->
  suffix_pks:bytes list ->
  t
(** The server at [position] (0-based) of the deployment's chain.
    [suffix_pks] are the public keys of the servers after it (needed to
    wrap noise requests).  A seeded deployment derives the server's RNG
    from [seed ^ "-server-" ^ position], so a daemon is bit-identical to
    the same position of an in-process chain.  [pool] runs the
    per-onion crypto (default: sequential); the tier that owns the
    server's domains creates it, sized by [jobs], and joins it.
    Results are bit-identical at any job count.

    The deployment's telemetry sink (default: none) records a span per
    pipeline stage per round — [peel], [noise], [shuffle], [exchange],
    [reseal], [unpeel]; stages that do not apply to this position
    appear as zero-duration markers so coverage is total — and counts
    requests/noise into the registry.  Instrumentation never draws from
    the RNG, so rounds are bit-identical with telemetry on or off.
    @raise Invalid_argument on inconsistent position/suffix. *)

val public_key : t -> bytes

val metrics : t -> metrics

val last_histogram : t -> Deaddrop.histogram option
(** Instrumentation: the access-count histogram the last server observed
    in the most recent conversation round — exactly the adversary's view
    (§4.2). *)

(** {2 Streamed ingress}

    The relay feeds a round's batch to a server in contiguous parts as
    they come off the wire, so the expensive per-onion peel overlaps
    with the upstream server still producing the rest of the batch.
    Start a stream, feed it every part in slot order, then call the
    matching [*_finish_*] (or {!finish}) exactly once.  The result
    depends only on the concatenation of the parts, so a relay that
    sends the whole batch as one part is bit-identical to one that
    pipelines. *)

type stream
(** Incremental peel state for one round on one server: the layer
    secrets seen, slot table, and peeled inners accumulated so far. *)

val conv_stream : t -> round:int -> stream
val dial_stream : t -> round:int -> stream

val stream : t -> kind:Round.kind -> round:int -> stream
(** {!conv_stream} or {!dial_stream}, by [kind]. *)

val stream_feed : t -> stream -> bytes array -> unit
(** Peel one contiguous chunk (size-check, fan the DH + AEAD out over
    the pool, then drop any onion whose layer secret an earlier one of
    the round already produced).  Chunks must arrive in slot order. *)

(** {2 Conversation rounds} *)

val conv_finish_forward : t -> stream -> bytes array
(** Mixing server: add cover traffic and shuffle everything fed so far;
    returns the outgoing batch.  Invalid onions are dropped from it but
    keep their reply slot. *)

val conv_finish_exchange : t -> stream -> bytes array
(** Last server: dead-drop matching + reseal over everything fed. *)

val conv_backward : t -> round:int -> bytes array -> bytes array
(** Mixing server: unshuffle, discard own noise, seal replies.
    @raise Invalid_argument for an unknown round or wrong batch size. *)

(** {2 Dialing rounds} *)

val dial_finish_forward : t -> stream -> m:int -> bytes array

val dial_finish_deliver : t -> stream -> m:int -> bytes array
(** Last server: file invitations into the [m] drops, add its own noise,
    return fixed-size acks. *)

val dial_backward : t -> round:int -> bytes array -> bytes array

(** {2 Either kind} *)

val finish : t -> stream -> m:int -> bytes array
(** The [*_finish_*] for the stream's kind and this server's position:
    the outgoing batch at a mixing server, the replies at the last one
    ([m] is ignored for conversation streams). *)

val backward : t -> kind:Round.kind -> round:int -> bytes array -> bytes array
(** {!conv_backward} or {!dial_backward}, by [kind]. *)

val proposed_m : t -> int
(** The last server's §5.4 recommendation for the next dialing round's
    invitation-drop count (m = n·f/µ, estimated from the latest round's
    arrivals minus upstream noise). *)

val fetch_invitations : ?dial_round:int -> t -> index:int -> bytes list
(** Download an invitation drop from the last server (unmixed, §5.5).
    Defaults to the most recent dialing round; [?dial_round] reaches any
    of the last {!invitation_history} rounds' stores, so a
    briefly-blocked client can catch up on the invitations it missed. *)

val invitation_history : int
(** How many past dialing rounds' invitation stores the last server
    retains (older stores are dropped). *)

(** {2 Round aborts}

    The round supervisor's recovery path: a failed round's state is
    discarded on every server so the retry — under a fresh round number,
    with freshly drawn noise — starts clean.  Conversation and dialing
    rounds number independently, hence separate entry points. *)

val abort_conv_round : t -> round:int -> unit
val abort_dial_round : t -> round:int -> unit
(** Also discards the round's invitation store, if it was filed. *)
