(** The seeded wire-transcript fixture, shared between the alcotest
    suite (in-process chain) and the loopback-TCP deployment test
    ([test/net]): one digest computation, two backends, so "the TCP
    chain is bit-identical to the in-process chain" is checked against
    literally the same bytes. *)

type backend = {
  pks : bytes list;
  conversation_round : round:int -> bytes array -> bytes array;
      (** must raise on failure *)
  dialing_round : round:int -> m:int -> bytes array -> bytes array;
}

val seed : string
(** The deployment seed ["transcript-pin"]; servers use the standard
    per-position derivation from it. *)

val n_servers : int
val noise : Vuvuzela_dp.Laplace.params
val dial_noise : Vuvuzela_dp.Laplace.params
(** Chain parameters every backend must use ([Deterministic] noise). *)

val of_remote : Vuvuzela.Remote.t -> backend
(** A backend over a coordinator's link to server 0: each round is
    {!Harness.round_exn}. *)

val in_process :
  ?telemetry:Vuvuzela_telemetry.Telemetry.t ->
  ?jobs:int ->
  ?pipeline_chunk:int ->
  ?deaddrop_shards:int ->
  unit ->
  backend * (unit -> unit)
(** The reference backend: [Chain.of_config] with [seed]; the thunk
    shuts the chain down.  [jobs], [pipeline_chunk] (which turns on
    the streamed relay), [deaddrop_shards] (the sharded store) and
    [telemetry] (a live observability sink) must never change the
    digests — that is the point of pinning them. *)

val conv_digest : backend -> string
(** SHA-256 (hex) over: server public keys, then rounds 1..3 — every
    request onion, then every reply blob, in slot order — from 4 seeded
    clients in two conversing pairs. *)

val full_digest : backend -> string
(** [conv_digest]'s schedule followed by dialing round 1 (m = 1):
    requests, then acks, fed to the same hash. *)

val pinned_conv_digest : string
(** Captured from the seed implementation; {!conv_digest} of any
    backend must equal it forever. *)

val pinned_full_digest : string
(** Captured when the dialing-inclusive pin was introduced, and re-pinned
    once since: when an idle client's no-op stopped being a sealed box,
    the dialing requests' bytes after their first 32 moved, while those
    32 bytes (the onions' ephemeral keys) and every ack stayed. *)
