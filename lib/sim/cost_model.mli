(** The calibrated cost model of the paper's testbed (§8.1-§8.2): what
    each hop of a conversation round costs, dialing latency, and
    bandwidth at a given round interval.  When rounds finish, and so
    every interval and throughput, is {!Pipeline.run}'s. *)

type t = {
  dh_ops_per_sec : float;
  protocol_overhead : float;
  link_bandwidth : float;
  rpc_overhead_bytes : int;
  pipeline_efficiency : float;
  dial_coschedule_latency : float;
}

val paper : t
(** 340K Curve25519 ops/s per 36-core server, 10 Gbps links, the
    measured ~1.9× full-protocol overhead, and an 0.85 pipeline
    efficiency.  0.85 was fitted to the paper's 68K msgs/s through a
    closed-form interval that left the batch's transfer time out;
    {!Pipeline.run} at 1M users and µ = 300K gives 65,523 msgs/s with
    it (−3.6%), and 0.882 would give 68K. *)

val conv_noise_per_server : Vuvuzela_dp.Laplace.params -> float
(** ≈ 2µ cover requests per mixing server per round. *)

val conv_total_requests :
  users:int -> servers:int -> noise:Vuvuzela_dp.Laplace.params -> float

val conv_lower_bound :
  t -> users:int -> servers:int -> noise:Vuvuzela_dp.Laplace.params -> float
(** §8.2's bare-crypto bound: one DH per request per server, strictly
    sequential servers. *)

val stage_time :
  t ->
  users:int ->
  servers:int ->
  noise:Vuvuzela_dp.Laplace.params ->
  at:int ->
  float
(** Seconds server [at] (0-based) is busy with one conversation round:
    one DH per request of the final batch size, times the protocol
    overhead, plus the transfer of the batch on its link, both
    directions.  {!Pipeline.run} chains these over rounds and servers. *)

val conv_latency :
  t -> users:int -> servers:int -> noise:Vuvuzela_dp.Laplace.params -> float
(** End-to-end conversation round latency (Figures 9 and 11): the stage
    times summed in chain order, bit for bit the latency of
    [Pipeline.run ~rounds:1]. *)

val dial_latency :
  t ->
  users:int ->
  servers:int ->
  m:int ->
  dial_noise:Vuvuzela_dp.Laplace.params ->
  float
(** Figure 10. *)

val server_bandwidth :
  t ->
  users:int ->
  servers:int ->
  noise:Vuvuzela_dp.Laplace.params ->
  round_interval:float ->
  float
(** Bytes/sec through one server (each message counted once) when a
    round completes every [round_interval] seconds. *)

val invitation_drop_bytes :
  users:int ->
  servers:int ->
  m:int ->
  dial_fraction:float ->
  dial_noise:Vuvuzela_dp.Laplace.params ->
  float
(** §8.3's ~7 MB dialing download. *)

val client_bandwidth :
  users:int ->
  servers:int ->
  m:int ->
  dial_fraction:float ->
  dial_noise:Vuvuzela_dp.Laplace.params ->
  round_interval:float ->
  dial_interval:float ->
  float
(** Average client bytes/sec (§8.3's ~12 KB/s): one conversation
    request and reply every [round_interval] seconds, one invitation
    drop every [dial_interval]. *)
