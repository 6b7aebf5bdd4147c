(* Adversary/attack tests: the Figure 6 sensitivity table, the strawman
   baseline's total insecurity, and the boundedness of the optimal
   statistical attack against Vuvuzela's noised observables. *)

open Vuvuzela_crypto
open Vuvuzela_dp
open Vuvuzela_attack

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

(* The paper's table, rows = cover story, columns = real action
   (Idle, Conversation with b, Conversation with x). *)
let paper_figure6 =
  [
    (Observation.Idle, [ (0, 0); (-2, 1); (0, 0) ]);
    (Observation.Talk_b, [ (2, -1); (0, 0); (2, -1) ]);
    (Observation.Talk_c, [ (2, -1); (0, 0); (2, -1) ]);
    (Observation.Send_x, [ (0, 0); (-2, 1); (0, 0) ]);
    (Observation.Send_y, [ (0, 0); (-2, 1); (0, 0) ]);
  ]

let test_figure6_table () =
  let computed = Observation.sensitivity_table () in
  List.iteri
    (fun row ((cover_p, row_p), (cover_c, row_c)) ->
      Alcotest.(check bool) (Printf.sprintf "row %d order" row) true
        (cover_p = cover_c);
      List.iteri
        (fun i ((d1p, d2p), (d1c, d2c)) ->
          if d1p <> d1c || d2p <> d2c then
            Alcotest.failf "row %d / col %d: paper (%+d,%+d) computed (%+d,%+d)"
              row i d1p d2p d1c d2c)
        (List.combine row_p row_c))
    (List.combine paper_figure6 computed)

let test_figure6_sensitivity_bound () =
  (* |∆m1| ≤ 2 and |∆m2| ≤ 1 — the inputs to Theorem 1. *)
  let s1, s2 = Observation.max_sensitivity () in
  Alcotest.(check int) "max |∆m1|" 2 s1;
  Alcotest.(check int) "max |∆m2|" 1 s2

(* ------------------------------------------------------------------ *)
(* Strawman baseline                                                   *)
(* ------------------------------------------------------------------ *)

let behavior_of talking u =
  match u with
  | 0 -> if talking then Strawman.Talking_to 1 else Strawman.Idle_cover
  | 1 -> if talking then Strawman.Talking_to 0 else Strawman.Idle_cover
  | 2 -> Strawman.Talking_to 3
  | 3 -> Strawman.Talking_to 2
  | _ -> Strawman.Idle_cover

let test_strawman_reveals_pairs () =
  let users = [ 0; 1; 2; 3; 4; 5 ] in
  let log = Strawman.run_round ~round:1 ~users ~behavior:(behavior_of true) in
  Alcotest.(check (list (pair int int))) "both pairs visible"
    [ (0, 1); (2, 3) ]
    (List.sort compare (Strawman.communicating_pairs log));
  Alcotest.(check bool) "alice-bob identified in one round" true
    (List.mem (0, 1) (Strawman.communicating_pairs log))

let test_strawman_confirmation_attack () =
  let users = [ 0; 1; 2; 3; 4; 5 ] in
  (* Blocking everyone else confirms or refutes in a single round. *)
  Alcotest.(check bool) "positive confirmed" true
    (Strawman.confirmation_attack ~round:2 ~users
       ~behavior:(behavior_of true) ~suspects:(0, 1));
  Alcotest.(check bool) "negative refuted" false
    (Strawman.confirmation_attack ~round:2 ~users
       ~behavior:(behavior_of false) ~suspects:(0, 1))

let test_strawman_unreciprocated_invisible () =
  (* An unreciprocated exchange is a lone access — not reported as a
     pair (same as Vuvuzela's semantics). *)
  let behavior = function
    | 0 -> Strawman.Talking_to 1
    | 1 -> Strawman.Idle_cover
    | _ -> Strawman.Offline
  in
  let log = Strawman.run_round ~round:1 ~users:[ 0; 1 ] ~behavior in
  Alcotest.(check (list (pair int int))) "no pair" []
    (Strawman.communicating_pairs log)

(* ------------------------------------------------------------------ *)
(* Disclosure attack: model level                                      *)
(* ------------------------------------------------------------------ *)

let test_pmf_sums_to_one () =
  let p = Laplace.params ~mu:10. ~b:3. in
  let pmf = Disclosure.pmf p ~max_k:200 in
  let total = Array.fold_left ( +. ) 0. pmf in
  if Float.abs (total -. 1.) > 1e-9 then
    Alcotest.failf "pmf sums to %.12f" total

let test_pmf_matches_sampler () =
  let p = Laplace.params ~mu:8. ~b:2. in
  let pmf = Disclosure.pmf p ~max_k:100 in
  let rng = Drbg.of_string "pmf-check" in
  let n = 20_000 in
  let counts = Array.make 101 0 in
  for _ = 1 to n do
    let v = Laplace.truncated_sample ~rng p in
    if v <= 100 then counts.(v) <- counts.(v) + 1
  done;
  (* Compare a few mass points against empirical frequencies. *)
  List.iter
    (fun k ->
      let emp = float_of_int counts.(k) /. float_of_int n in
      if Float.abs (emp -. pmf.(k)) > 0.02 then
        Alcotest.failf "pmf(%d)=%.4f but empirical %.4f" k pmf.(k) emp)
    [ 0; 5; 8; 10; 15 ]

let test_attack_bounded_with_noise () =
  (* With the paper's µ/b ratio (≈21.7, so the per-round δ is ~1e-10 and
     truncation events never fire), the adversary's accumulated log
     likelihood ratio stays within the DP budget k·ε. *)
  let noise = Laplace.params ~mu:200. ~b:9.2 in
  let rounds = 40 in
  let rng = Drbg.of_string "bounded-attack" in
  let v =
    Disclosure.model_attack ~rng ~noise ~talking:true ~rounds ~prior:0.5 ()
  in
  let eps = (Mechanism.conversation noise).Mechanism.eps in
  if v.Disclosure.log_lr > float_of_int rounds *. eps +. 1e-9 then
    Alcotest.failf "logLR %.4f exceeds k·ε %.4f" v.Disclosure.log_lr
      (float_of_int rounds *. eps);
  (* The expected evidence per round is the KL divergence ≈ ε²/8, far
     below ε: confidence stays well away from certainty. *)
  if v.Disclosure.posterior > 0.9 then
    Alcotest.failf "posterior %.3f too confident" v.Disclosure.posterior

let test_delta_truncation_leak () =
  (* Why Theorem 1 needs the δ term: if noise lands exactly on the
     truncation atom (N = 0), observing m2 = 1 is far likelier under
     "talking" than under the cover story — the likelihood ratio blows
     past e^ε.  The per-round probability of that event is ~δ. *)
  let noise = Laplace.params ~mu:20. ~b:5. in
  let m2 = Mechanism.m2_noise noise in
  let pmf = Disclosure.pmf m2 ~max_k:500 in
  (* The m2 component's per-round ε is 2/b (sensitivity 1 at scale b/2);
     away from the atom every LR is within e^{±2/b}. *)
  let eps_m2 = 2. /. noise.Laplace.b in
  let atom_lr = log (pmf.(0) /. pmf.(1)) in
  if atom_lr <= eps_m2 then
    Alcotest.failf "truncation atom LR %.3f should exceed ε=%.3f" atom_lr
      eps_m2;
  (* The atom's probability is within a small factor of the analytical
     per-round δ for the m2 mechanism (½·e^{(1−µ/2)/(b/2)}). *)
  let delta_m2 =
    0.5 *. exp ((1. -. m2.Laplace.mu) /. m2.Laplace.b)
  in
  if pmf.(0) > 4. *. delta_m2 then
    Alcotest.failf "atom mass %.2e should be ~δ=%.2e" pmf.(0) delta_m2

let test_attack_succeeds_without_noise () =
  (* Ablation: with near-zero noise the same attack identifies the pair
     almost immediately — this is what the noise is buying. *)
  let noise = Laplace.params ~mu:0.01 ~b:0.01 in
  let rng = Drbg.of_string "no-noise-attack" in
  let v =
    Disclosure.model_attack ~rng ~noise ~talking:true ~rounds:5 ~prior:0.5 ()
  in
  if v.Disclosure.posterior < 0.99 then
    Alcotest.failf "attack should succeed without noise (posterior %.3f)"
      v.Disclosure.posterior

let test_attack_no_false_positive () =
  (* When the pair is NOT talking, the posterior must not rise above the
     prior in expectation; allow a small tolerance for sampling noise. *)
  let noise = Laplace.params ~mu:30. ~b:8. in
  let rng = Drbg.of_string "fp-attack" in
  let total = ref 0. in
  let trials = 20 in
  for _ = 1 to trials do
    let v =
      Disclosure.model_attack ~rng ~noise ~talking:false ~rounds:20 ~prior:0.5 ()
    in
    total := !total +. v.Disclosure.posterior
  done;
  let mean = !total /. float_of_int trials in
  if mean > 0.55 then
    Alcotest.failf "mean posterior %.3f on innocent pair" mean

let test_intersection_attack_contrast () =
  let rng = Drbg.of_string "intersect" in
  (* No noise: the on/off difference in m2 is glaring. *)
  let loud =
    Disclosure.intersection_attack ~rng
      ~noise:(Laplace.params ~mu:0.01 ~b:0.01)
      ~talking:true ~rounds_each:50 ()
  in
  if loud.Disclosure.z_score < 5. then
    Alcotest.failf "no-noise z=%.2f should be decisive" loud.Disclosure.z_score;
  (* Vuvuzela-scale noise (scaled): the same attack drowns. *)
  let quiet =
    Disclosure.intersection_attack ~rng
      ~noise:(Laplace.params ~mu:3000. ~b:700.)
      ~talking:true ~rounds_each:50 ()
  in
  if Float.abs quiet.Disclosure.z_score > 3. then
    Alcotest.failf "noised z=%.2f should be inconclusive"
      quiet.Disclosure.z_score

(* ------------------------------------------------------------------ *)
(* Disclosure attack against the live implementation                   *)
(* ------------------------------------------------------------------ *)

let test_network_attack_bounded () =
  let noise = Laplace.params ~mu:12. ~b:4. in
  let v =
    Disclosure.network_attack ~idle_users:2 ~noise ~talking:true ~rounds:10
      ~prior:0.5 ~seed:"net-attack-t" ()
  in
  Alcotest.(check int) "observed all rounds" 10 v.Disclosure.rounds;
  (* 10 rounds at ε = 4/b = 1 gives a loose bound; what matters is that
     the realized odds stay within e^{k·ε}. *)
  if v.Disclosure.log_lr > 10. *. 1.0 then
    Alcotest.failf "network logLR %.3f above DP budget" v.Disclosure.log_lr

let test_network_attack_ablation () =
  (* The identical live attack with noise disabled (µ≈0) succeeds fast —
     demonstrating the mechanism, not just the maths. *)
  let noise = Laplace.params ~mu:0.01 ~b:0.01 in
  let talking =
    Disclosure.network_attack ~idle_users:2 ~noise ~talking:true ~rounds:6
      ~prior:0.5 ~seed:"net-attack-on" ()
  in
  let idle =
    Disclosure.network_attack ~idle_users:2 ~noise ~talking:false ~rounds:6
      ~prior:0.5 ~seed:"net-attack-off" ()
  in
  if talking.Disclosure.posterior < 0.95 then
    Alcotest.failf "unnoised live attack failed (posterior %.3f)"
      talking.Disclosure.posterior;
  if idle.Disclosure.posterior > 0.2 then
    Alcotest.failf "unnoised live attack false positive (posterior %.3f)"
      idle.Disclosure.posterior


(* ------------------------------------------------------------------ *)
(* Group privacy (§9)                                                  *)
(* ------------------------------------------------------------------ *)

(* "if an adversary suspects that a group of 1,000 people communicate
   frequently with each other, he can block all other users ... If the
   adversary now observes a significant number of dead drops being
   accessed twice, it would confirm his suspicion.  However, he cannot
   distinguish whether any specific individual ... is actually
   communicating."  We reproduce both halves at model level. *)
let test_group_privacy_limits () =
  let noise = Laplace.params ~mu:300. ~b:(300. /. 21.7) in
  let m2_noise = Mechanism.m2_noise noise in
  let rng = Drbg.of_string "group-privacy" in
  let group_pairs = 400 in
  (* Half 1: the GROUP is exposed.  Observed m2 = pairs + noise; the
     z-score of the group signal against the noise std is enormous. *)
  let observed =
    float_of_int (group_pairs + Laplace.truncated_sample ~rng m2_noise)
  in
  let z =
    (observed -. m2_noise.Laplace.mu) /. (Laplace.stddev m2_noise +. 1e-9)
  in
  if z < 10. then
    Alcotest.failf "group of %d pairs should be obvious (z=%.1f)" group_pairs z;
  (* Half 2: any INDIVIDUAL in the group keeps per-round ε deniability:
     the likelihood ratio for "pair p is among them" vs "p idle, someone
     else's pair instead" shifts m2 by at most 1 — same ε bound. *)
  let pmf =
    Disclosure.pmf m2_noise
      ~max_k:(int_of_float (m2_noise.Laplace.mu +. (30. *. m2_noise.Laplace.b)))
  in
  let base = group_pairs in
  let obs = base + Laplace.truncated_sample ~rng m2_noise in
  let lr =
    log (Float.max 1e-300 pmf.(obs - base) /. Float.max 1e-300 pmf.(obs - base + 1))
  in
  let eps_m2 = 2. /. noise.Laplace.b in
  if Float.abs lr > eps_m2 +. 1e-9 then
    Alcotest.failf "individual LR %.4f exceeds per-round ε=%.4f" lr eps_m2

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"sensitivity bounded for all action pairs" ~count:100
      (pair (int_bound 4) (int_bound 4))
      (fun (i, j) ->
        let actions =
          [|
            Observation.Idle; Observation.Talk_b; Observation.Talk_c;
            Observation.Send_x; Observation.Send_y;
          |]
        in
        let d1, d2 = Observation.delta ~real:actions.(i) ~cover:actions.(j) in
        abs d1 <= 2 && abs d2 <= 1);
    Test.make ~name:"per-round logLR within ±ε(m2)" ~count:50
      (pair (float_range 5. 50.) (float_range 2. 10.))
      (fun (mu, b) ->
        let noise = Laplace.params ~mu ~b in
        let m2 = Mechanism.m2_noise noise in
        let pmf =
          Disclosure.pmf m2 ~max_k:(int_of_float (mu +. (30. *. b)) + 5)
        in
        let eps_m2 = 2. /. b (* sensitivity 1, scale b/2 *) in
        (* Check the LR bound at a few observation values with positive
           mass under both hypotheses. *)
        List.for_all
          (fun o ->
            o + 1 >= Array.length pmf
            || pmf.(o) < 1e-12
            || pmf.(o + 1) < 1e-12
            || Float.abs (log (pmf.(o) /. pmf.(o + 1))) <= eps_m2 +. 1e-6)
          [ 1; 2; 5; 10 ]);
  ]

let suite =
  let tc = Alcotest.test_case in
  ( "attack",
    [
      tc "figure 6 table reproduced" `Quick test_figure6_table;
      tc "figure 6 sensitivity bound" `Quick test_figure6_sensitivity_bound;
      tc "strawman reveals pairs" `Quick test_strawman_reveals_pairs;
      tc "strawman confirmation attack" `Quick test_strawman_confirmation_attack;
      tc "strawman unreciprocated invisible" `Quick test_strawman_unreciprocated_invisible;
      tc "noise pmf sums to one" `Quick test_pmf_sums_to_one;
      tc "noise pmf matches sampler" `Quick test_pmf_matches_sampler;
      tc "attack bounded with noise" `Quick test_attack_bounded_with_noise;
      tc "delta truncation leak" `Quick test_delta_truncation_leak;
      tc "group privacy limits (§9)" `Quick test_group_privacy_limits;
      tc "attack succeeds without noise" `Quick test_attack_succeeds_without_noise;
      tc "no false positives" `Quick test_attack_no_false_positive;
      tc "intersection attack contrast" `Quick test_intersection_attack_contrast;
      tc "live attack bounded" `Quick test_network_attack_bounded;
      tc "live attack ablation (no noise)" `Quick test_network_attack_ablation;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props )
