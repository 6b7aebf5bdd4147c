(* Server-side cover-traffic planning (Algorithm 2, step 2).

   Each server draws n1, n2 ~ Laplace(µ, b) capped below at 0 and adds
   ⌈n1⌉ single accesses to random dead drops plus ⌈n2/2⌉ paired accesses
   (two requests to one random drop).  The singles noise the
   dead-drops-accessed-once counter m1 with Laplace(µ, b); the pairs noise
   m2 with Laplace(µ/2, b/2) — exactly the mechanism of Theorem 1. *)

type mode =
  | Sampled  (** draw from the Laplace distribution (deployment) *)
  | Deterministic
      (** always add exactly the mean µ — the paper's §8.1 evaluation mode
          ("to not let noise affect the clarity of the graphs") *)

type plan = { singles : int; pairs : int }


let conversation ?rng ~mode (p : Laplace.params) =
  match mode with
  | Deterministic ->
      {
        singles = int_of_float (Float.ceil p.mu);
        pairs = int_of_float (Float.ceil (p.mu /. 2.));
      }
  | Sampled ->
      let n1 = Laplace.truncated_sample ?rng p in
      let n2 = Laplace.truncated_sample ?rng p in
      { singles = n1; pairs = (n2 + 1) / 2 }

(* Dialing (§5.3): every server adds ⌈max(0, Laplace(µ, b))⌉ noise
   invitations to *each* of the m invitation dead drops. *)
let dialing_per_drop ?rng ~mode (p : Laplace.params) =
  match mode with
  | Deterministic -> int_of_float (Float.ceil p.mu)
  | Sampled -> Laplace.truncated_sample ?rng p

(* §5.4: the invitation-drop count m = n·f/µ balancing real invitations
   against noise so each drop carries roughly µ of each. *)
let tune_drop_count ~users:n ~dial_fraction:f (p : Laplace.params) =
  if n <= 0 then 1
  else max 1 (int_of_float (Float.round (float_of_int n *. f /. p.mu)))
