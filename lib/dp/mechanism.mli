(** Per-round differential-privacy accounting (§6.2 Theorem 1, Lemma 3,
    and the §6.5 dialing variant). *)

type guarantee = { eps : float; delta : float }

val conversation : Laplace.params -> guarantee
(** Theorem 1: [(4/b, e^{(2−µ)/b})]-DP per conversation round. *)

val dialing : Laplace.params -> guarantee
(** §6.5: [(2/b, ½·e^{(1−µ)/b})]-DP per dialing round. *)

val conversation_noise_for : guarantee -> Laplace.params
(** Equation 1: [(µ, b)] achieving a target per-round [(ε, δ)]. *)

val dialing_noise_for : guarantee -> Laplace.params

val m2_noise : Laplace.params -> Laplace.params
(** Noise on the accessed-twice counter: [Laplace(µ/2, b/2)]; the
    accessed-once counter gets [Laplace(µ, b)] itself. *)
