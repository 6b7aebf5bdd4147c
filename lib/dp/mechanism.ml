(* Per-round privacy accounting (§6.2, Theorem 1 and Lemma 3, and the
   dialing variant of §6.5).

   A mechanism describes which observable variables a protocol exposes and
   how much one user's action can change them (the sensitivity, Figure 6);
   Theorem 1 turns the noise parameters (µ, b) into a per-round (ε, δ). *)

type guarantee = { eps : float; delta : float }

(* Theorem 1 (conversation protocol): noise Laplace(µ, b) on m1 (|∆m1| ≤ 2)
   and Laplace(µ/2, b/2) on m2 (|∆m2| ≤ 1) compose to
     ε = 4/b,   δ = exp((2 − µ)/b). *)
let conversation (p : Laplace.params) =
  { eps = 4. /. p.b; delta = exp ((2. -. p.mu) /. p.b) }

(* §6.5 (dialing protocol): a user's dialing action changes up to two
   invitation-drop counts by 1 each, each noised with Laplace(µ, b):
     ε = 2/b,   δ = ½·exp((1 − µ)/b). *)
let dialing (p : Laplace.params) =
  { eps = 2. /. p.b; delta = 0.5 *. exp ((1. -. p.mu) /. p.b) }

(* Equation 1: invert Theorem 1 — the (µ, b) needed for a target
   per-round (ε, δ) in the conversation protocol:
     b = 4/ε,   µ = 2 − 4·ln(δ)/ε. *)
let conversation_noise_for { eps; delta } =
  Laplace.params ~b:(4. /. eps) ~mu:(2. -. (4. *. log delta /. eps))

(* The dialing analogue: b = 2/ε, µ = 1 − b·ln(2δ). *)
let dialing_noise_for { eps; delta } =
  let b = 2. /. eps in
  Laplace.params ~b ~mu:(1. -. (b *. log (2. *. delta)))

(* The conversation protocol's two observable counters and their noise
   (Theorem 1): m1 gets Laplace(µ, b), m2 gets Laplace(µ/2, b/2).
   Algorithm 2 realizes exactly this by drawing n1, n2 ~ Laplace(µ, b)
   capped at 0 and adding ⌈n1⌉ singles and ⌈n2/2⌉ pairs. *)
let m2_noise (p : Laplace.params) =
  Laplace.params ~mu:(p.mu /. 2.) ~b:(p.b /. 2.)
