(** The §6.4 plausible-deniability arithmetic: bounds on an adversary's
    posterior belief after observing an (ε, δ)-DP system. *)

val posterior : prior:float -> eps:float -> float
(** Worst-case posterior [p·e^ε / (p·e^ε + 1 − p)] (δ tail ignored). *)

val update : prior:float -> likelihood_ratio:float -> float
(** Exact Bayesian update for a concrete likelihood ratio (used by the
    attack simulations to measure realized adversary confidence). *)
