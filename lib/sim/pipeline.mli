(** The Vuvuzela round pipeline: each server processes one round's batch
    at a time, rounds flow down the chain, successive rounds overlap
    (§8.2-§8.3).  With fixed stage times the chain is a max-plus
    recurrence over rounds and servers, the one model of when rounds
    finish. *)

type result = {
  rounds_completed : int;
  mean_latency : float;
  round_interval : float;
  throughput : float;
  server_utilization : float array;
}

val run :
  ?model:Cost_model.t ->
  users:int ->
  servers:int ->
  noise:Vuvuzela_dp.Laplace.params ->
  rounds:int ->
  unit ->
  result
(** Run [rounds] pipelined conversation rounds through the chain of
    {!Cost_model.stage_time}s.  With [~rounds:1] the latency is
    {!Cost_model.conv_latency} bit for bit; the round interval, the
    throughput and utilization are emergent, and are the only ones the
    figures print.
    @raise Invalid_argument unless [servers >= 1], [rounds >= 1] and the
    model's [pipeline_efficiency] is in (0, 1], or when the model makes
    a server's stage time negative. *)
