(** Regeneration harnesses for every figure and headline number in the
    paper's evaluation (§6.4 Figures 7-8, §8 Figures 9-11). *)

type point = { x : float; y : float }

type privacy_curve = {
  mu : float;
  b : float;
  points : (int * float * float) list;  (** (k, e^ε′, δ′) *)
  supported_k : int;
}

val figure7 : unit -> privacy_curve list
val figure8 : unit -> privacy_curve list

type pipeline_curve = {
  label : string;
  points : (int * Pipeline.result) list;
}

val conv_noise_of : float -> Vuvuzela_dp.Laplace.params
(** Noise with the paper's µ/b ratio for a given mean. *)

val fig9_users : int list

val figure9 : ?model:Cost_model.t -> unit -> pipeline_curve list
(** µ = 100K/200K/300K, each user count a 6-round {!Pipeline.run} on 3
    servers: its mean latency is Figure 9's curve, its round interval
    and throughput the pipelined rate. *)

val dial_noise_13k : Vuvuzela_dp.Laplace.params
val figure10 : ?model:Cost_model.t -> unit -> (int * float) list
(** Dialing latency vs users at µ = 13K, m = 1, 3 servers. *)

val figure11 : ?model:Cost_model.t -> unit -> (int * float) list
(** Latency vs chain length at 1M users, µ = 300K. *)

val quadratic_r2 : (int * float) list -> float
(** Least-squares fit of latency against servers²; R². *)

type headline = {
  latency_1m : float;
  latency_2m : float;
  latency_10 : float;
  throughput_1m : float;
  lower_bound_2m : float;
  noise_requests : float;
  server_bandwidth_1m : float;
  client_bandwidth : float;
  drop_bytes : float;
  messages_per_minute : float;
}

val headlines : ?model:Cost_model.t -> unit -> headline
(** The §1/§8.2/§8.3 headline numbers. *)
