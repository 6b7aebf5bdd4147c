(** Multi-round privacy accounting: Theorem 2 (advanced adaptive
    composition) and the parameter-planning helpers behind Figures 7–8. *)

val compose : k:int -> d:float -> Mechanism.guarantee -> Mechanism.guarantee
(** Theorem 2: [(ε′, δ′)] after [k] adaptive rounds, with free parameter
    [d > 0] trading ε′ against δ′. *)

val default_d : float
(** 1e-5, the paper's choice (§6.4). *)

val satisfies : target:Mechanism.guarantee -> Mechanism.guarantee -> bool

val max_rounds :
  ?d:float -> ?target:Mechanism.guarantee -> Mechanism.guarantee -> int
(** Largest [k] whose composition still satisfies [target] (binary
    search; ε′ and δ′ are monotone in [k]).  [target] defaults to the
    paper's recommended deployment target, ε′ = ln 2 and δ′ = 1e-4. *)

type protocol = Conversation | Dialing

val per_round_of : protocol -> Laplace.params -> Mechanism.guarantee

val best_b :
  ?d:float ->
  ?target:Mechanism.guarantee ->
  protocol:protocol ->
  mu:float ->
  ?b_lo:float ->
  ?b_hi:float ->
  ?steps:int ->
  unit ->
  float * int
(** §6.4's parameter sweep: for a fixed mean noise [mu], the scale [b]
    maximizing the number of supported rounds, with that maximum. *)

val figure_point :
  protocol:protocol ->
  mu:float ->
  b:float ->
  k:int ->
  d:float ->
  float * float
(** One Figure 7/8 point: [(e^{ε′}, δ′)] after [k] rounds. *)

val noise_for_target :
  ?d:float -> protocol:protocol -> k:int -> Mechanism.guarantee ->
  Laplace.params
(** Approximate inverse planning: the [(µ, b)] needed to support [k]
    rounds at a target [(ε′, δ′)]. *)
