(** The Vuvuzela round pipeline: each server processes one round's batch
    at a time, rounds flow down the chain, successive rounds overlap
    (§8.2-§8.3).  With fixed stage times the chain is a max-plus
    recurrence over rounds and servers. *)

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
(** Simulate [rounds] pipelined conversation rounds.  Latency agrees
    with {!Cost_model.conv_latency} within a few percent; the round
    interval and utilization are emergent.
    @raise Invalid_argument unless [servers >= 1], [rounds >= 1] and the
    model's [pipeline_efficiency] is in (0, 1], or when the model makes
    a server's stage time negative. *)
