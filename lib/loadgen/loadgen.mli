(** Vectorized synthetic client population for scale benchmarks.

    Holds a population of [n] simulated conversation clients as flat
    arrays (~100 bytes of steady state per client) instead of [n] full
    {!Vuvuzela.Client} machines, and builds each round's onion batch in
    bulk — sealing on the coordinator, the per-onion X25519/AEAD wrap
    fanned over the domain pool.  Clients 2k and 2k+1 are conversation
    partners exchanging one real message per round; an odd population's
    last client sends indistinguishable cover (random drop, random
    sealed bytes) and must receive the empty result.

    The pair handshake is synthesized from the seeded DRBG rather than
    derived via X25519 (the servers never observe that derivation — only
    equal drop ids and opaque sealed messages), but the onions are the
    real thing, so server-side cost under this load is the deployment's
    real per-onion cost.

    The population is deployment-agnostic: [feed_conversation] matches
    the [produce] hook of {!Vuvuzela.Chain} and {!Vuvuzela.Remote} (and
    so the entry collector's sink); [conversation_onions] builds the
    whole batch at once, for callers that build before they time a
    round. *)

type t

val create : ?seed:string -> n:int -> unit -> t
(** A deterministic population of [n] clients.
    @raise Invalid_argument if [n < 1]. *)

val feed_conversation :
  ?pool:Vuvuzela_parallel.Pool.t ->
  t ->
  round:int ->
  server_pks:bytes list ->
  chunk:int ->
  sink:(bytes array -> unit) ->
  unit
(** Build round [round]'s batch slot by slot and hand it to [sink] in
    slot-ordered chunks of at most [chunk] onions, retaining each slot's
    reply secrets for {!verify}.  At no point do more than [chunk]
    onions exist on this side, so a streaming entry tier keeps the whole
    path population-independent.  DRBG draws happen on the calling
    domain in slot order; the pure wrap fans over [pool], each domain's
    share of a chunk as one {!Vuvuzela_mixnet.Onion.wrap_many} batch —
    chunks are bit-identical at every job count.
    @raise Invalid_argument if [chunk < 1]. *)

val conversation_onions :
  ?pool:Vuvuzela_parallel.Pool.t ->
  t ->
  round:int ->
  server_pks:bytes list ->
  bytes array
(** The whole batch at once (= the concatenation of
    {!feed_conversation}'s chunks). *)

type delivery = {
  delivered : int;
      (** replies that unwrapped, opened under the pair keys, and
          matched the partner's message for this round exactly *)
  expected : int;  (** [2 * pairs t] *)
  lone : int;  (** idle clients that correctly got the empty result *)
}

val verify :
  ?pool:Vuvuzela_parallel.Pool.t ->
  t ->
  round:int ->
  bytes array ->
  delivery
(** Check a round's slot-aligned reply array end to end.  A full
    round trip is [delivered = expected] (every pair exchanged) and
    [lone = n mod 2].
    @raise Invalid_argument if [round] is not the round last built, or
    the array length differs from the population. *)
