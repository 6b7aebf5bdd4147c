(* Differential-privacy machinery tests: sampler statistics, Theorem 1 /
   Lemma 3 / Theorem 2 arithmetic, planner behaviour, and agreement with
   the constants reported in the paper (§6.4, §6.5, Figures 7-8). *)

open Vuvuzela_crypto
open Vuvuzela_dp

let feq ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Laplace sampling                                                    *)
(* ------------------------------------------------------------------ *)

let test_laplace_params () =
  Alcotest.check_raises "b must be positive"
    (Invalid_argument "Laplace.params: b must be positive") (fun () ->
      ignore (Laplace.params ~mu:1. ~b:0.))

let test_laplace_statistics () =
  let rng = Drbg.of_string "laplace-stats" in
  let p = Laplace.params ~mu:100. ~b:25. in
  let n = 20_000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let x = Laplace.sample ~rng p in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  (* mean within 2% of µ, std within 5% of b√2 *)
  feq ~tol:2. "empirical mean" 100. mean;
  feq ~tol:(0.05 *. Laplace.stddev p *. Laplace.stddev p)
    "empirical variance"
    (2. *. 25. *. 25.)
    var

let test_truncated_sample_nonnegative () =
  let rng = Drbg.of_string "trunc" in
  (* A distribution mostly below zero still never yields negatives. *)
  let p = Laplace.params ~mu:(-5.) ~b:3. in
  for _ = 1 to 2000 do
    let v = Laplace.truncated_sample ~rng p in
    if v < 0 then Alcotest.fail "negative noise"
  done

let test_truncated_sample_mean () =
  (* For µ >> b, truncation is negligible and the mean must be ≈ µ. *)
  let rng = Drbg.of_string "trunc-mean" in
  let p = Laplace.params ~mu:300. ~b:10. in
  let n = 5000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Laplace.truncated_sample ~rng p
  done;
  let mean = float_of_int !sum /. float_of_int n in
  feq ~tol:2. "mean ≈ µ (+0.5 for ceil)" 300.5 mean

(* The Laplace density, the oracle the cdf is integrated against. *)
let pdf { Laplace.mu; b } x = exp (-.Float.abs (x -. mu) /. b) /. (2. *. b)

let test_laplace_cdf_pdf () =
  let p = Laplace.params ~mu:0. ~b:1. in
  feq "cdf at mean" 0.5 (Laplace.cdf p 0.);
  feq "pdf at mean" 0.5 (pdf p 0.);
  feq ~tol:1e-6 "cdf symmetry" 1.
    (Laplace.cdf p 3. +. Laplace.cdf p (-3.));
  (* CDF is consistent with numerically integrated PDF. *)
  let integral = ref 0. in
  let dx = 0.001 in
  let x = ref (-20.) in
  while !x < 1.5 do
    integral := !integral +. (pdf p (!x +. (dx /. 2.)) *. dx);
    x := !x +. dx
  done;
  feq ~tol:1e-3 "cdf = ∫pdf" (Laplace.cdf p 1.5) !integral

(* ------------------------------------------------------------------ *)
(* Theorem 1 / Lemma 3 / Equation 1                                    *)
(* ------------------------------------------------------------------ *)

let test_theorem1 () =
  let p = Laplace.params ~mu:300_000. ~b:13_800. in
  let g = Mechanism.conversation p in
  feq "eps = 4/b" (4. /. 13_800.) g.eps;
  feq ~tol:1e-18 "delta = exp((2-mu)/b)"
    (exp ((2. -. 300_000.) /. 13_800.))
    g.delta

(* Lemma 3: noise ⌈max(0, Laplace(µ, b))⌉ on a single counter with
   sensitivity t gives ε = t/b and δ = ½·exp((t − µ)/b). *)
let lemma3 ~sensitivity:t (p : Laplace.params) =
  { Mechanism.eps = t /. p.b; delta = 0.5 *. exp ((t -. p.mu) /. p.b) }

let test_lemma3_composition_identity () =
  (* Theorem 1 is Lemma 3 applied to m1 (sens 2, noise (µ,b)) and m2
     (sens 1, noise (µ/2, b/2)): ε adds, δ adds. *)
  let p = Laplace.params ~mu:1000. ~b:50. in
  let g1 = lemma3 ~sensitivity:2. p in
  let g2 = lemma3 ~sensitivity:1. (Mechanism.m2_noise p) in
  let g = Mechanism.conversation p in
  feq "eps adds" g.eps (g1.eps +. g2.eps);
  feq ~tol:1e-15 "delta adds" g.delta (g1.delta +. g2.delta)

let test_equation1_inverts () =
  let target = { Mechanism.eps = 0.001; delta = 1e-8 } in
  let p = Mechanism.conversation_noise_for target in
  let g = Mechanism.conversation p in
  feq "eps roundtrip" target.eps g.eps;
  feq ~tol:1e-12 "delta roundtrip" target.delta g.delta

let test_dialing_inverts () =
  let target = { Mechanism.eps = 0.002; delta = 1e-7 } in
  let p = Mechanism.dialing_noise_for target in
  let g = Mechanism.dialing p in
  feq "eps roundtrip" target.eps g.eps;
  feq ~tol:1e-11 "delta roundtrip" target.delta g.delta

(* ------------------------------------------------------------------ *)
(* Theorem 2 composition                                               *)
(* ------------------------------------------------------------------ *)

let test_compose_formula () =
  let g = { Mechanism.eps = 0.001; delta = 1e-9 } in
  let k = 10_000 and d = 1e-5 in
  let c = Composition.compose ~k ~d g in
  let kf = 10_000. in
  feq "eps'"
    ((sqrt (2. *. kf *. log (1. /. 1e-5)) *. 0.001)
    +. (kf *. 0.001 *. (exp 0.001 -. 1.)))
    c.eps;
  feq ~tol:1e-15 "delta'" ((kf *. 1e-9) +. 1e-5) c.delta

let test_compose_monotone_in_k () =
  let g = { Mechanism.eps = 3e-4; delta = 1e-10 } in
  let prev = ref 0. in
  List.iter
    (fun k ->
      let c = Composition.compose ~k ~d:1e-5 g in
      if c.eps <= !prev then Alcotest.fail "eps' not increasing in k";
      prev := c.eps)
    [ 1; 10; 100; 1000; 10_000; 100_000 ]

let test_compose_validation () =
  let g = { Mechanism.eps = 0.1; delta = 0. } in
  Alcotest.check_raises "negative k"
    (Invalid_argument "Composition.compose: negative k") (fun () ->
      ignore (Composition.compose ~k:(-1) ~d:1e-5 g));
  Alcotest.check_raises "d = 0"
    (Invalid_argument "Composition.compose: d must be positive") (fun () ->
      ignore (Composition.compose ~k:1 ~d:0. g))

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: paper parameter sets                               *)
(* ------------------------------------------------------------------ *)

(* The paper reports the three conversation noise levels support 70K,
   250K and 500K rounds at ε′=ln 2, δ′=1e-4 (§6.4).  Our exact Theorem 2
   arithmetic reproduces these within ~10% (the paper rounds up). *)
let test_figure7_round_counts () =
  let expect_k mu b lo hi =
    let p = Laplace.params ~mu ~b in
    let k = Composition.max_rounds (Mechanism.conversation p) in
    if k < lo || k > hi then
      Alcotest.failf "µ=%g b=%g: k=%d outside [%d, %d]" mu b k lo hi
  in
  expect_k 150_000. 7_300. 60_000 75_000;
  expect_k 300_000. 13_800. 220_000 255_000;
  expect_k 450_000. 20_000. 460_000 510_000

let test_figure8_round_counts () =
  let expect_k mu b lo hi =
    let p = Laplace.params ~mu ~b in
    let k = Composition.max_rounds (Mechanism.dialing p) in
    if k < lo || k > hi then
      Alcotest.failf "µ=%g b=%g: k=%d outside [%d, %d]" mu b k lo hi
  in
  (* Paper: 1200, 3500, 8000 rounds; exact arithmetic gives slightly
     fewer for the larger sets (paper rounds generously). *)
  expect_k 8_000. 500. 1_100 1_350;
  expect_k 13_000. 770. 2_700 3_600;
  expect_k 20_000. 1_130. 5_800 8_100

let test_figure7_endpoint_guarantees () =
  (* At the supported k, the realized guarantee is ≈ (ln 2, 1e-4). *)
  let p = Laplace.params ~mu:300_000. ~b:13_800. in
  let k = Composition.max_rounds (Mechanism.conversation p) in
  let c = Composition.compose ~k ~d:Composition.default_d (Mechanism.conversation p) in
  if exp c.eps > 2.0000001 then Alcotest.fail "e^eps' exceeds 2";
  if exp c.eps < 1.99 then Alcotest.fail "e^eps' far below 2 (k not maximal)";
  if c.delta > 1e-4 then Alcotest.fail "delta' exceeds 1e-4"

let test_max_rounds_zero_when_impossible () =
  (* A per-round guarantee worse than the target cannot support 1 round. *)
  let g = { Mechanism.eps = 1.0; delta = 1e-3 } in
  Alcotest.(check int) "k = 0" 0 (Composition.max_rounds g)

let test_best_b_recovers_paper_choice () =
  (* §6.4's sweep should land near the paper's b=13800 for µ=300K. *)
  let b, k =
    Composition.best_b ~protocol:Composition.Conversation ~mu:300_000.
      ~b_lo:2_000. ~b_hi:60_000. ~steps:200 ()
  in
  if b < 11_000. || b > 17_000. then
    Alcotest.failf "sweep chose b=%g, far from paper's 13800" b;
  if k < 220_000 then Alcotest.failf "sweep k=%d too small" k

let test_mu_scaling_laws () =
  (* §6.4: µ grows ∝ √k for fixed (ε′, δ′). *)
  let mu_for k =
    (Composition.noise_for_target ~protocol:Composition.Conversation ~k
       { Mechanism.eps = log 2.; delta = 1e-4 })
      .mu
  in
  let r1 = mu_for 40_000 /. mu_for 10_000 in
  (* quadrupling k should double µ, within 10% *)
  if Float.abs (r1 -. 2.) > 0.2 then
    Alcotest.failf "µ scaling with √k broken: ratio %g" r1;
  (* µ increases linearly with 1/ε′ *)
  let mu_eps e =
    (Composition.noise_for_target ~protocol:Composition.Conversation
       ~k:10_000
       { Mechanism.eps = e; delta = 1e-4 })
      .mu
  in
  let r2 = mu_eps (log 2. /. 2.) /. mu_eps (log 2.) in
  if Float.abs (r2 -. 2.) > 0.25 then
    Alcotest.failf "µ scaling with 1/ε broken: ratio %g" r2

(* ------------------------------------------------------------------ *)
(* Noise plans (Algorithm 2 step 2)                                    *)
(* ------------------------------------------------------------------ *)

let total_requests { Noise.singles; pairs } = singles + (2 * pairs)

let test_noise_deterministic () =
  let p = Laplace.params ~mu:300_000. ~b:13_800. in
  let plan = Noise.conversation ~mode:Noise.Deterministic p in
  Alcotest.(check int) "singles = µ" 300_000 plan.singles;
  Alcotest.(check int) "pairs = µ/2" 150_000 plan.pairs;
  (* 2µ requests per noising server; 2 servers → the paper's 1.2M. *)
  Alcotest.(check int) "2µ per server" 600_000 (total_requests plan);
  Alcotest.(check int) "1.2M for 2 noising servers" 1_200_000
    (2 * total_requests plan)

let test_noise_sampled_statistics () =
  let rng = Drbg.of_string "noise-sampled" in
  let p = Laplace.params ~mu:1000. ~b:50. in
  let n = 2000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + total_requests (Noise.conversation ~rng ~mode:Noise.Sampled p)
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* E[singles + 2·pairs] ≈ µ + 2·(µ/2) = 2µ (pair rounding adds ≤ 1). *)
  if Float.abs (mean -. 2000.) > 40. then
    Alcotest.failf "sampled noise mean %.1f, expected ≈ 2000" mean

let test_tune_drop_count () =
  let p = Laplace.params ~mu:13_000. ~b:770. in
  (* 1M users, 5% dialing → m = 50,000/13,000 ≈ 4. *)
  Alcotest.(check int) "m for 1M users" 4
    (Noise.tune_drop_count ~users:1_000_000 ~dial_fraction:0.05 p);
  (* The paper's experimental scale: optimal m is 1 (§7). *)
  Alcotest.(check int) "m small scale" 1
    (Noise.tune_drop_count ~users:10_000 ~dial_fraction:0.05 p);
  Alcotest.(check int) "m floor at 1" 1
    (Noise.tune_drop_count ~users:0 ~dial_fraction:0.05 p)

(* ------------------------------------------------------------------ *)
(* Bayes (§6.4 example)                                                *)
(* ------------------------------------------------------------------ *)

let test_bayes_paper_examples () =
  feq ~tol:0.005 "prior 50%, ε=ln2 → 67%" (2. /. 3.)
    (Bayes.posterior ~prior:0.5 ~eps:(log 2.));
  feq ~tol:0.005 "prior 50%, ε=ln3 → 75%" 0.75
    (Bayes.posterior ~prior:0.5 ~eps:(log 3.));
  feq ~tol:0.002 "prior 1%, ε=ln3 → ~3%" 0.0294
    (Bayes.posterior ~prior:0.01 ~eps:(log 3.))

let test_bayes_update () =
  feq "likelihood 1 leaves prior" 0.3
    (Bayes.update ~prior:0.3 ~likelihood_ratio:1.);
  feq ~tol:1e-9 "posterior matches worst-case bound"
    (Bayes.posterior ~prior:0.5 ~eps:(log 2.))
    (Bayes.update ~prior:0.5 ~likelihood_ratio:2.);
  Alcotest.check_raises "prior validated"
    (Invalid_argument "Bayes.posterior: bad prior") (fun () ->
      ignore (Bayes.posterior ~prior:1.5 ~eps:0.1))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"truncated noise is a non-negative integer" ~count:200
      (pair (float_range (-100.) 1000.) (float_range 0.1 200.))
      (fun (mu, b) ->
        let rng = Drbg.of_string "prop-noise" in
        Laplace.truncated_sample ~rng (Laplace.params ~mu ~b) >= 0);
    Test.make ~name:"cdf is monotone" ~count:100
      (triple (float_range (-50.) 50.) (float_range 0.5 20.)
         (pair (float_range (-100.) 100.) (float_range (-100.) 100.)))
      (fun (mu, b, (x, y)) ->
        let p = Laplace.params ~mu ~b in
        let lo = Float.min x y and hi = Float.max x y in
        Laplace.cdf p lo <= Laplace.cdf p hi +. 1e-12);
    Test.make ~name:"composition eps' grows with k" ~count:50
      (pair (int_range 1 1000) (int_range 1 1000))
      (fun (k1, k2) ->
        let g = { Mechanism.eps = 1e-3; delta = 1e-9 } in
        let lo = min k1 k2 and hi = max k1 k2 in
        lo = hi
        || (Composition.compose ~k:lo ~d:1e-5 g).eps
           < (Composition.compose ~k:hi ~d:1e-5 g).eps);
    Test.make ~name:"equation 1 inverts theorem 1" ~count:100
      (pair (float_range 1e-4 0.5) (float_range 1e-12 1e-3))
      (fun (eps, delta) ->
        let p = Mechanism.conversation_noise_for { Mechanism.eps; delta } in
        let g = Mechanism.conversation p in
        Float.abs (g.eps -. eps) < 1e-9
        && Float.abs (g.delta -. delta) /. delta < 1e-6);
    Test.make ~name:"max_rounds is exact (k ok, k+1 not)" ~count:25
      (pair (float_range 500. 5000.) (float_range 20. 200.))
      (fun (mu, b) ->
        let g = Mechanism.conversation (Laplace.params ~mu ~b) in
        let target = { Mechanism.eps = log 2.; delta = 1e-4 } in
        let k = Composition.max_rounds ~target g in
        let ok n = Composition.satisfies ~target (Composition.compose ~k:n ~d:1e-5 g) in
        (k = 0 || ok k) && not (ok (k + 1)));
  ]

let suite =
  let tc = Alcotest.test_case in
  ( "dp",
    [
      tc "laplace params validation" `Quick test_laplace_params;
      tc "laplace sampler statistics" `Quick test_laplace_statistics;
      tc "truncated sample non-negative" `Quick test_truncated_sample_nonnegative;
      tc "truncated sample mean" `Quick test_truncated_sample_mean;
      tc "laplace cdf/pdf" `Quick test_laplace_cdf_pdf;
      tc "theorem 1" `Quick test_theorem1;
      tc "lemma 3 decomposition" `Quick test_lemma3_composition_identity;
      tc "equation 1 inverts" `Quick test_equation1_inverts;
      tc "dialing noise inverts" `Quick test_dialing_inverts;
      tc "theorem 2 formula" `Quick test_compose_formula;
      tc "composition monotone in k" `Quick test_compose_monotone_in_k;
      tc "composition validation" `Quick test_compose_validation;
      tc "figure 7 round counts" `Quick test_figure7_round_counts;
      tc "figure 8 round counts" `Quick test_figure8_round_counts;
      tc "figure 7 endpoint guarantees" `Quick test_figure7_endpoint_guarantees;
      tc "max_rounds zero when impossible" `Quick test_max_rounds_zero_when_impossible;
      tc "b-sweep recovers paper choice" `Slow test_best_b_recovers_paper_choice;
      tc "µ scaling laws" `Quick test_mu_scaling_laws;
      tc "deterministic noise plan" `Quick test_noise_deterministic;
      tc "sampled noise statistics" `Quick test_noise_sampled_statistics;
      tc "invitation drop tuning" `Quick test_tune_drop_count;
      tc "bayes paper examples" `Quick test_bayes_paper_examples;
      tc "bayes update" `Quick test_bayes_update;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props )

(* Advanced vs basic composition: for one round they coincide in spirit,
   and for large k Theorem 2's √k bound is strictly better than the
   naive k·ε sum — the reason the paper can support hundreds of
   thousands of rounds. *)
let test_advanced_beats_basic_composition () =
  let g = Mechanism.conversation (Laplace.params ~mu:300_000. ~b:13_800.) in
  let naive k = float_of_int k *. g.Mechanism.eps in
  let advanced k = (Composition.compose ~k ~d:1e-5 g).Mechanism.eps in
  (* Small k: the √k term's ln(1/d) factor makes Theorem 2 looser. *)
  Alcotest.(check bool) "naive can win at k=10" true (naive 10 < advanced 10);
  (* Large k: Theorem 2 wins by orders of magnitude. *)
  List.iter
    (fun k ->
      let a = advanced k and n = naive k in
      if a >= n then
        Alcotest.failf "advanced %.3f not better than naive %.3f at k=%d" a n k)
    [ 10_000; 100_000; 250_000 ];
  (* At the paper's operating point the advantage is ~30x. *)
  let k = 234_439 in
  if naive k /. advanced k < 10. then
    Alcotest.failf "advantage only %.1fx at the operating point"
      (naive k /. advanced k)

(* The √k growth law (§6.4 "µ increases proportionally to √k"),
   verified on max_rounds with the paper's b-sweep at each µ.  The law
   is approximate — the log(1/δ′) term shaves it below exactly
   quadratic (the paper's own triple 65K/234K/492K gives 7.5× for 3× µ,
   vs 9× for pure k ∝ µ²) — so we assert strongly super-linear and at
   most quadratic growth. *)
let test_supported_rounds_scale_quadratically_in_mu () =
  let k_of mu =
    snd
      (Composition.best_b ~protocol:Composition.Conversation ~mu
         ~b_lo:(mu /. 100.) ~b_hi:mu ~steps:120 ())
  in
  let k1 = k_of 100_000. and k4 = k_of 400_000. in
  let ratio = float_of_int k4 /. float_of_int k1 in
  if ratio < 8. || ratio > 16.5 then
    Alcotest.failf "k(4µ)/k(µ) = %.1f, expected in [8, 16]" ratio

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "advanced vs basic composition" `Quick
          test_advanced_beats_basic_composition;
        Alcotest.test_case "k scales as µ²" `Quick
          test_supported_rounds_scale_quadratically_in_mu;
      ] )
