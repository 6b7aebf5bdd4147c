(* Regeneration harnesses for every figure and headline number in the
   paper's evaluation (§6.4, §8).  Each function returns the data series;
   bench/main.ml prints them next to the paper's values. *)

open Vuvuzela_dp

type point = { x : float; y : float }

(* ------------------------------------------------------------------ *)
(* Figure 7: ε′ and δ′ vs k, conversation noise                        *)
(* ------------------------------------------------------------------ *)

let fig7_params =
  [ (150_000., 7_300.); (300_000., 13_800.); (450_000., 20_000.) ]

let fig8_params = [ (8_000., 500.); (13_000., 770.); (20_000., 1_130.) ]

let ks lo hi n =
  (* log-spaced round counts *)
  let ratio = (hi /. lo) ** (1. /. float_of_int (n - 1)) in
  List.init n (fun i -> int_of_float (lo *. (ratio ** float_of_int i)))

type privacy_curve = {
  mu : float;
  b : float;
  points : (int * float * float) list;  (** k, e^ε′, δ′ *)
  supported_k : int;  (** max rounds at ε′=ln2, δ′=1e-4 *)
}

let privacy_figure ~protocol ~params ~k_lo ~k_hi =
  List.map
    (fun (mu, b) ->
      let p = Laplace.params ~mu ~b in
      let per_round = Composition.per_round_of protocol p in
      let points =
        List.map
          (fun k ->
            let e, d =
              Composition.figure_point ~protocol ~mu ~b ~k
                ~d:Composition.default_d
            in
            (k, e, d))
          (ks k_lo k_hi 13)
      in
      { mu; b; points; supported_k = Composition.max_rounds per_round })
    params

let figure7 () =
  privacy_figure ~protocol:Composition.Conversation ~params:fig7_params
    ~k_lo:10_000. ~k_hi:1_000_000.

let figure8 () =
  privacy_figure ~protocol:Composition.Dialing ~params:fig8_params
    ~k_lo:1_000. ~k_hi:16_000.

(* ------------------------------------------------------------------ *)
(* Figure 9: conversation latency vs users                             *)
(* ------------------------------------------------------------------ *)

let fig9_users = [ 10; 250_000; 500_000; 750_000; 1_000_000; 1_500_000; 2_000_000 ]
let fig9_mus = [ 100_000.; 200_000.; 300_000. ]

type pipeline_curve = { label : string; points : (int * Pipeline.result) list }

(* The paper's experiments pin noise at exactly µ (§8.1), which the
   model reflects by using the mean. *)
let conv_noise_of mu = Laplace.params ~mu ~b:(mu /. 21.7) (* b as in §6.4 ratio *)

(* Rounds of every pipeline run behind a figure or headline, as many as
   `vuvuzela simulate` runs: enough for three servers' rounds to
   overlap. *)
let rounds = 6

(* Each point is a pipelined run: its mean latency is Figure 9's, and its
   round interval the throughput behind §8.2's 68K msgs/s. *)
let figure9 ?(model = Cost_model.paper) () =
  List.map
    (fun mu ->
      {
        label = Printf.sprintf "mu=%.0f" mu;
        points =
          List.map
            (fun users ->
              ( users,
                Pipeline.run ~model ~users ~servers:3 ~noise:(conv_noise_of mu)
                  ~rounds () ))
            fig9_users;
      })
    fig9_mus

(* ------------------------------------------------------------------ *)
(* Figure 10: dialing latency vs users                                 *)
(* ------------------------------------------------------------------ *)

let dial_noise_13k = Laplace.params ~mu:13_000. ~b:770.

let figure10 ?(model = Cost_model.paper) () =
  List.map
    (fun users ->
      ( users,
        Cost_model.dial_latency model ~users ~servers:3 ~m:1
          ~dial_noise:dial_noise_13k ))
    fig9_users

(* ------------------------------------------------------------------ *)
(* Figure 11: latency vs number of servers (1M users, µ=300K)          *)
(* ------------------------------------------------------------------ *)

let figure11 ?(model = Cost_model.paper) () =
  List.map
    (fun servers ->
      ( servers,
        Cost_model.conv_latency model ~users:1_000_000 ~servers
          ~noise:(conv_noise_of 300_000.) ))
    [ 1; 2; 3; 4; 5; 6 ]

(* Quadratic-shape check: fit latency(s) against s² by least squares and
   report R². *)
let quadratic_r2 points =
  let xs = List.map (fun (s, _) -> float_of_int (s * s)) points in
  let ys = List.map snd points in
  let n = float_of_int (List.length points) in
  let mean l = List.fold_left ( +. ) 0. l /. n in
  let mx = mean xs and my = mean ys in
  let cov =
    List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0. xs ys
  in
  let vx = List.fold_left (fun a x -> a +. ((x -. mx) ** 2.)) 0. xs in
  let slope = cov /. vx in
  let intercept = my -. (slope *. mx) in
  let ss_res =
    List.fold_left2
      (fun a x y -> a +. ((y -. (slope *. x) -. intercept) ** 2.))
      0. xs ys
  in
  let ss_tot = List.fold_left (fun a y -> a +. ((y -. my) ** 2.)) 0. ys in
  1. -. (ss_res /. ss_tot)

(* ------------------------------------------------------------------ *)
(* Headline numbers (§1, §8.2, §8.3)                                   *)
(* ------------------------------------------------------------------ *)

type headline = {
  latency_1m : float;  (** paper: 37 s *)
  latency_2m : float;  (** paper: 55 s *)
  latency_10 : float;  (** paper: 20 s *)
  throughput_1m : float;  (** paper: 68,000 msgs/s *)
  lower_bound_2m : float;  (** paper: ≈28 s *)
  noise_requests : float;  (** paper: 1.2M for 3 servers, µ=300K *)
  server_bandwidth_1m : float;  (** paper: 166 MB/s *)
  client_bandwidth : float;  (** paper: ≈12 KB/s *)
  drop_bytes : float;  (** paper: ≈7 MB per dialing round *)
  messages_per_minute : float;  (** paper: 4 per client at 1M users *)
}

let headlines ?(model = Cost_model.paper) () =
  let noise = conv_noise_of 300_000. in
  let latency users =
    Cost_model.conv_latency model ~users ~servers:3 ~noise
  in
  let at_1m =
    Pipeline.run ~model ~users:1_000_000 ~servers:3 ~noise ~rounds ()
  in
  let round_interval = at_1m.Pipeline.round_interval in
  {
    latency_1m = latency 1_000_000;
    latency_2m = latency 2_000_000;
    latency_10 = latency 10;
    throughput_1m = at_1m.Pipeline.throughput;
    lower_bound_2m =
      Cost_model.conv_lower_bound model ~users:2_000_000 ~servers:3 ~noise;
    noise_requests =
      2. *. Cost_model.conv_noise_per_server noise (* 2 mixing servers *);
    server_bandwidth_1m =
      Cost_model.server_bandwidth model ~users:1_000_000 ~servers:3 ~noise
        ~round_interval;
    client_bandwidth =
      Cost_model.client_bandwidth ~users:1_000_000 ~servers:3 ~m:1
        ~dial_fraction:0.05 ~dial_noise:dial_noise_13k ~round_interval
        ~dial_interval:600.;
    drop_bytes =
      Cost_model.invitation_drop_bytes ~users:1_000_000 ~servers:3 ~m:1
        ~dial_fraction:0.05 ~dial_noise:dial_noise_13k;
    messages_per_minute = 60. /. round_interval;
  }
