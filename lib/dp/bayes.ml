(* The §6.4 worked example: what an adversary's posterior belief can
   become after observing an (ε, δ)-DP system.

   If Eve's prior that Alice and Bob are talking is p, then after any
   observation O,
     Pr[talking | O] ≤ p·e^ε / (p·e^ε + (1 − p))
   (ignoring the δ tail).  With p = 50% and ε = ln 2 this is 67%; with
   ε = ln 3 it is 75%; with p = 1% and ε = ln 3 it is ~3%. *)

let posterior ~prior ~eps =
  if prior < 0. || prior > 1. then invalid_arg "Bayes.posterior: bad prior";
  let lift = prior *. exp eps in
  lift /. (lift +. (1. -. prior))

(* Bayesian update from an explicit likelihood ratio
   L = Pr[obs | talking] / Pr[obs | cover story]; DP guarantees
   e^{-ε} ≤ L ≤ e^ε (up to δ). *)
let update ~prior ~likelihood_ratio =
  if likelihood_ratio = Float.infinity then (if prior > 0. then 1. else 0.)
  else begin
    let lift = prior *. likelihood_ratio in
    lift /. (lift +. (1. -. prior))
  end
