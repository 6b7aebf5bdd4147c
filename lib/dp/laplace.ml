(* Laplace distribution sampling and the paper's truncated noise shape
   ⌈max(0, Laplace(µ, b))⌉ (Algorithm 2, step 2; Theorem 1). *)

open Vuvuzela_crypto

type params = { mu : float; b : float }

let params ~mu ~b =
  if b <= 0. then invalid_arg "Laplace.params: b must be positive";
  { mu; b }

(* Inverse-CDF sampling: u uniform in (-1/2, 1/2],
   x = µ - b·sgn(u)·ln(1 - 2|u|). *)
let sample ?rng { mu; b } =
  let u = Drbg.float_unit ?rng () -. 0.5 in
  let u = if u = -0.5 then 0.4999999999 else u in
  let s = if u < 0. then -1. else 1. in
  mu -. (b *. s *. log (1. -. (2. *. Float.abs u)))

let stddev { b; _ } = b *. sqrt 2.

(* The noise count a Vuvuzela server adds: Laplace capped below at zero,
   rounded up to an integer.  Rounding up is safe post-processing
   (Lemma 3 / Theorem 1). *)
let truncated_sample ?rng p =
  let x = sample ?rng p in
  int_of_float (Float.ceil (Float.max 0. x))

(* CDF of the (untruncated) Laplace distribution. *)
let cdf { mu; b } x =
  if x < mu then 0.5 *. exp ((x -. mu) /. b)
  else 1. -. (0.5 *. exp (-.(x -. mu) /. b))
