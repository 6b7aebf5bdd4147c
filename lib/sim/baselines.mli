(** Related-work baseline comparators (§1, §10): the O(n²) broadcast and
    PIR families that Vuvuzela's linear design displaces, on the same
    hardware constants. *)

val broadcast_round_latency :
  Cost_model.t -> users:int -> msg_bytes:int -> float
(** Dissent/Herbivore-style: n² message copies per round. *)

val pir_round_latency : users:int -> msg_bytes:int -> float
(** Pynchon-Gate-style: n² database-scan work per round. *)

val vuvuzela_round_latency :
  Cost_model.t -> users:int -> noise:Vuvuzela_dp.Laplace.params -> float

val max_users : budget:float -> (int -> float) -> int
(** Largest user count keeping the (monotone) latency within [budget]. *)

type comparison_row = {
  users : int;
  vuvuzela_s : float;
  broadcast_s : float;
  pir_s : float;
}

val comparison_table :
  ?model:Cost_model.t ->
  noise:Vuvuzela_dp.Laplace.params ->
  int list ->
  comparison_row list
