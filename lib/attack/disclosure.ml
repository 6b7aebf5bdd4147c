(* Statistical disclosure attacks against the noised observables.

   The strongest §4.2 adversary controls every user except Alice and Bob
   and every server except one.  Each round it therefore knows the base
   dead-drop counts exactly and sees

       m2_observed = (1 if Alice and Bob exchanged else 0) + N

   where N is the honest server's noise (⌈max(0, Laplace(µ/2, b/2))⌉ on
   m2, Theorem 1).  The optimal attack is the likelihood-ratio test; this
   module implements it both against a closed-form model and against the
   live implementation, and checks the realized adversary confidence
   against the differential-privacy bound. *)

open Vuvuzela_dp

(* Probability mass function of ⌈max(0, Laplace(µ, b))⌉ up to [max_k].
   P(0) = CDF(0); P(k) = CDF(k) − CDF(k−1) for k ≥ 1. *)
let pmf (p : Laplace.params) ~max_k =
  Array.init (max_k + 1) (fun k ->
      if k = 0 then Laplace.cdf p 0.
      else Laplace.cdf p (float_of_int k) -. Laplace.cdf p (float_of_int (k - 1)))

(* PMF of the sum of independent noise draws (one per honest-or-unknown
   server). *)
let convolve a b =
  let n = Array.length a + Array.length b - 1 in
  let out = Array.make n 0. in
  Array.iteri
    (fun i ai -> Array.iteri (fun j bj -> out.(i + j) <- out.(i + j) +. (ai *. bj)) b)
    a;
  out

let rec self_convolve a = function
  | 1 -> a
  | n when n > 1 -> convolve a (self_convolve a (n - 1))
  | _ -> invalid_arg "Disclosure.self_convolve: need at least one copy"

type verdict = {
  rounds : int;
  log_lr : float;  (** accumulated log likelihood ratio (talking : not) *)
  posterior : float;  (** adversary's belief that the pair is talking *)
  truth : bool;
}

let pp_verdict fmt v =
  Format.fprintf fmt "{rounds=%d; logLR=%+.4f; posterior=%.4f; truth=%b}"
    v.rounds v.log_lr v.posterior v.truth

(* Accumulate the likelihood-ratio test over a series of observed m2
   values.  [noise_pmf] is the distribution of the unknown noise;
   [base] the adversary-known contribution. *)
let likelihood_verdict ~noise_pmf ~base ~prior ~truth observations =
  let n = Array.length noise_pmf in
  let p k = if k < 0 || k >= n then 1e-300 else Float.max 1e-300 noise_pmf.(k) in
  let log_lr =
    List.fold_left
      (fun acc m2 ->
        let if_talking = p (m2 - base - 1) in
        let if_not = p (m2 - base) in
        acc +. log (if_talking /. if_not))
      0. observations
  in
  let posterior = Bayes.update ~prior ~likelihood_ratio:(exp log_lr) in
  { rounds = List.length observations; log_lr; posterior; truth }

(* ------------------------------------------------------------------ *)
(* Model-level attack (fast; arbitrary round counts)                   *)
(* ------------------------------------------------------------------ *)

(* Simulate [rounds] rounds in which Alice and Bob either exchange every
   round ([talking]) or never do, with one honest server adding m2 noise
   Laplace(µ/2, b/2); run the optimal test. *)
let model_attack ?rng ~noise ~talking ~rounds ~prior () =
  let m2_noise = Mechanism.m2_noise noise in
  let observations =
    List.init rounds (fun _ ->
        (if talking then 1 else 0) + Laplace.truncated_sample ?rng m2_noise)
  in
  let max_k =
    5 + List.fold_left max 0 observations
    + int_of_float (m2_noise.Laplace.mu +. (20. *. m2_noise.Laplace.b))
  in
  likelihood_verdict ~noise_pmf:(pmf m2_noise ~max_k) ~base:0 ~prior
    ~truth:talking observations

(* ------------------------------------------------------------------ *)
(* Attack against the live implementation                              *)
(* ------------------------------------------------------------------ *)

(* Run the real chain with Alice, Bob and [idle_users] bystanders, all
   visible to the adversary.  The adversary reads the last server's
   histogram each round and runs the same test, knowing that the unknown
   noise is the sum over the mixing servers' contributions. *)
let network_attack ?(idle_users = 3) ?(n_servers = 3) ~noise ~talking ~rounds
    ~prior ~seed () =
  let open Vuvuzela in
  let net =
    Network.of_config
      Network.Config.(
        default |> with_seed seed |> with_n_servers n_servers
        |> with_noise noise
        |> with_dial_noise (Laplace.params ~mu:1. ~b:1.)
        |> with_noise_mode Vuvuzela_dp.Noise.Sampled)
  in
  let alice = Network.connect ~seed:"attack-alice" net in
  let bob = Network.connect ~seed:"attack-bob" net in
  for i = 1 to idle_users do
    ignore (Network.connect ~seed:(Printf.sprintf "attack-idle%d" i) net)
  done;
  if talking then begin
    Client.start_conversation alice ~peer_pk:(Client.public_key bob);
    Client.start_conversation bob ~peer_pk:(Client.public_key alice)
  end;
  let observations = ref [] in
  for _ = 1 to rounds do
    ignore (Network.run ~kind:Round.Conversation net);
    match Observation.observe_chain (Network.chain net) with
    | Some v -> observations := v.Observation.m2 :: !observations
    | None -> ()
  done;
  (* m2 noise per mixing server is Laplace(µ/2, b/2) realized as ⌈n2/2⌉
     pairs with n2 ~ Laplace(µ, b); (n_servers − 1) independent copies. *)
  let m2_noise = Mechanism.m2_noise noise in
  let per_server_max =
    5 + int_of_float (m2_noise.Laplace.mu +. (20. *. m2_noise.Laplace.b))
  in
  let noise_pmf =
    self_convolve (pmf m2_noise ~max_k:per_server_max) (n_servers - 1)
  in
  likelihood_verdict ~noise_pmf ~base:0 ~prior ~truth:talking
    (List.rev !observations)

(* ------------------------------------------------------------------ *)
(* Intersection attack (§4.2's passive variant)                        *)
(* ------------------------------------------------------------------ *)

(* Compare the mean m2 between rounds where Alice is online and rounds
   where the adversary knocked her offline.  Returns the estimated
   difference and its z-score; without noise the difference is exactly 1
   with zero variance, with Vuvuzela's noise the z-score shrinks like
   1/(b·√2/√k). *)
type intersection = { delta_estimate : float; z_score : float }

let intersection_attack ?rng ~noise ~talking ~rounds_each () =
  let m2_noise = Mechanism.m2_noise noise in
  let sample ~online =
    (if talking && online then 1. else 0.)
    +. float_of_int (Laplace.truncated_sample ?rng m2_noise)
  in
  let series online = List.init rounds_each (fun _ -> sample ~online) in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let var l =
    let m = mean l in
    List.fold_left (fun a x -> a +. ((x -. m) ** 2.)) 0. l
    /. float_of_int (List.length l - 1)
  in
  let on = series true and off = series false in
  let delta = mean on -. mean off in
  let se =
    sqrt ((var on +. var off) /. float_of_int rounds_each) +. 1e-12
  in
  { delta_estimate = delta; z_score = delta /. se }
