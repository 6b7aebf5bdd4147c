(** Optimal (likelihood-ratio) statistical disclosure attacks against
    the noised observables, run against a closed-form model and against
    the live implementation; plus the passive intersection attack. *)

val pmf : Vuvuzela_dp.Laplace.params -> max_k:int -> float array
(** Probability mass function of [⌈max(0, Laplace(µ, b))⌉] on
    [0..max_k]. *)

type verdict = {
  rounds : int;
  log_lr : float;  (** accumulated log likelihood ratio *)
  posterior : float;
  truth : bool;
}

val pp_verdict : Format.formatter -> verdict -> unit

val model_attack :
  ?rng:Vuvuzela_crypto.Drbg.t ->
  noise:Vuvuzela_dp.Laplace.params ->
  talking:bool ->
  rounds:int ->
  prior:float ->
  unit ->
  verdict
(** Closed-form simulation: one honest server's noise hides the pair. *)

val network_attack :
  ?idle_users:int ->
  ?n_servers:int ->
  noise:Vuvuzela_dp.Laplace.params ->
  talking:bool ->
  rounds:int ->
  prior:float ->
  seed:string ->
  unit ->
  verdict
(** The same adversary run against the real implementation: reads the
    last server's histograms over [rounds] live rounds. *)

type intersection = { delta_estimate : float; z_score : float }

val intersection_attack :
  ?rng:Vuvuzela_crypto.Drbg.t ->
  noise:Vuvuzela_dp.Laplace.params ->
  talking:bool ->
  rounds_each:int ->
  unit ->
  intersection
(** §4.2's passive attack: compare mean m2 between Alice-online and
    Alice-offline rounds. *)
