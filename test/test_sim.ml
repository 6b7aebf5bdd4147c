(* Simulator tests: the pipeline's input checks and exact values, the
   calibrated cost model against the paper's reported numbers, and the
   figure harnesses' shape properties. *)

open Vuvuzela_sim

let feq ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

let within msg ~pct expected actual =
  if expected = 0. then feq msg expected actual
  else begin
    let rel = Float.abs ((actual -. expected) /. expected) in
    if rel > pct /. 100. then
      Alcotest.failf "%s: %.4g is %.1f%% from paper's %.4g (allow %.0f%%)"
        msg actual (100. *. rel) expected pct
  end

(* ------------------------------------------------------------------ *)
(* Pipeline: input checks and exact values                             *)
(* ------------------------------------------------------------------ *)

let noise300k = Figures.conv_noise_of 300_000.

let test_pipeline_efficiency_range () =
  (* Zero efficiency means an infinite coordination gap, and NaN or a
     value above one a meaningless or negative one. *)
  List.iter
    (fun pipeline_efficiency ->
      let model = { Cost_model.paper with pipeline_efficiency } in
      Alcotest.check_raises
        (Printf.sprintf "efficiency %g" pipeline_efficiency)
        (Invalid_argument "Pipeline.run: pipeline_efficiency must be in (0, 1]")
        (fun () ->
          ignore
            (Pipeline.run ~model ~users:1_000_000 ~servers:3 ~noise:noise300k
               ~rounds:6 ())))
    [ 0.; nan; 1.2; -0.5; infinity ]

let test_pipeline_input_range () =
  let run ~users ~servers ~rounds () =
    ignore (Pipeline.run ~users ~servers ~noise:noise300k ~rounds ())
  in
  Alcotest.check_raises "no server"
    (Invalid_argument "Pipeline.run: need at least one server")
    (run ~users:10 ~servers:0 ~rounds:6);
  Alcotest.check_raises "no round"
    (Invalid_argument "Pipeline.run: need at least one round")
    (run ~users:10 ~servers:3 ~rounds:0);
  Alcotest.check_raises "negative work"
    (Invalid_argument "Pipeline.run: negative stage time")
    (run ~users:(-100_000_000) ~servers:3 ~rounds:2);
  (* No users and no mixing server: rounds take no time, and what is
     averaged over the interval is 0, not NaN. *)
  let r = Pipeline.run ~users:0 ~servers:1 ~noise:noise300k ~rounds:6 () in
  Alcotest.(check (float 0.)) "empty chain throughput" 0. r.Pipeline.throughput;
  Alcotest.(check (float 0.))
    "empty chain server bandwidth" 0.
    (Cost_model.server_bandwidth Cost_model.paper ~users:0 ~servers:1
       ~noise:noise300k ~round_interval:r.Pipeline.round_interval)

(* Bit-exact pins (hex floats under [Float.equal]): a change to the
   order of the pipeline's arithmetic moves a bit here even where the
   tolerance checks below cannot see it. *)
let exact msg expected actual =
  if not (Float.equal expected actual) then
    Alcotest.failf "%s: expected %h, got %h" msg expected actual

let check_exact msg ~rounds ~latency ~interval ~throughput ~utilization
    (r : Pipeline.result) =
  Alcotest.(check int) (msg ^ ": rounds") rounds r.Pipeline.rounds_completed;
  exact (msg ^ ": latency") latency r.Pipeline.mean_latency;
  exact (msg ^ ": interval") interval r.Pipeline.round_interval;
  exact (msg ^ ": throughput") throughput r.Pipeline.throughput;
  Alcotest.(check int)
    (msg ^ ": servers") (List.length utilization)
    (Array.length r.Pipeline.server_utilization);
  List.iteri
    (fun i u ->
      exact (Printf.sprintf "%s: utilization %d" msg i) u
        r.Pipeline.server_utilization.(i))
    utilization

let test_pipeline_figure9_exact () =
  List.iter2
    (fun (users, latency, interval) (u, l, i) ->
      Alcotest.(check int) "users" users u;
      exact (Printf.sprintf "latency at %d users" users) latency l;
      exact (Printf.sprintf "interval at %d users" users) interval i)
    [
      (10, 0x1.52f735412aee1p+4, 0x1.f8eb10057ba86p+2);
      (250_000, 0x1.9d8c42f16ec53p+4, 0x1.376fd50705d18p+3);
      (500_000, 0x1.e8221426fe71bp+4, 0x1.726abca82d4c2p+3);
      (750_000, 0x1.195bf2ae470efp+5, 0x1.ad65a44954c6ap+3);
      (1_000_000, 0x1.3ea6db490ee51p+5, 0x1.e8608bea7c413p+3);
      (1_500_000, 0x1.893cac7e9e918p+5, 0x1.2f2b2d96659b2p+4);
      (2_000_000, 0x1.d3d27db42e3ddp+5, 0x1.6a2615378d15cp+4);
    ]
    (match Figures.figure9 () with
    | [ _; _; mu300k ] ->
        Alcotest.(check string) "µ" "mu=300000" mu300k.Figures.label;
        List.map
          (fun (u, r) -> (u, r.Pipeline.mean_latency, r.Pipeline.round_interval))
          mu300k.Figures.points
    | _ -> Alcotest.fail "unexpected curve count")

let test_pipeline_queueing_exact () =
  (* With no coordination gap, the later (busier) hops are the
     bottleneck: rounds queue there, so the mean latency over 6 rounds
     (45.02 s) exceeds one round's (42.43 s). *)
  let model = { Cost_model.paper with pipeline_efficiency = 1.0 } in
  check_exact "queueing" ~rounds:6 ~latency:0x1.6831315af67b4p+5
    ~interval:0x1.630fda596e212p+3 ~throughput:0x1.cd70cd634e485p-1
    ~utilization:
      [
        0x1.3b9a8bf2b7c32p-1;
        0x1.485ff3896efbap-1;
        0x1.5337dc3c7dea1p-1;
        0x1.5c22460be48e9p-1;
      ]
    (Pipeline.run ~model ~users:10 ~servers:4 ~noise:noise300k ~rounds:6 ())

let test_pipeline_one_server_exact () =
  check_exact "one server" ~rounds:6 ~latency:0x1.8a82d4c04564p+2
    ~interval:0x1.d02172c41566ap+2 ~throughput:0x1.0d521a4e3686dp+17
    ~utilization:[ 0x1.b333333333333p-1 ]
    (Pipeline.run ~users:1_000_000 ~servers:1 ~noise:noise300k ~rounds:6 ())

let test_pipeline_one_round_exact () =
  check_exact "one round" ~rounds:1 ~latency:0x1.3ea6db490ee52p+5
    ~interval:0x1.3ea6db490ee52p+5 ~throughput:0x1.884719a98742dp+14
    ~utilization:
      [ 0x1.4d8065c14cce6p-2; 0x1.55dc1e72a580ep-2; 0x1.5ca37bcc0db0cp-2 ]
    (Pipeline.run ~users:1_000_000 ~servers:3 ~noise:noise300k ~rounds:1 ())

let test_pipeline_paper_exact () =
  (* The configuration the pipelining and utilization checks below use. *)
  check_exact "1M users, 8 rounds" ~rounds:8 ~latency:0x1.3ea6db490ee51p+5
    ~interval:0x1.e8608bea7c411p+3 ~throughput:0x1.ffe6442155ce9p+15
    ~utilization:
      [ 0x1.6a4b2fb2a3c78p-1; 0x1.735fa2d484f5p-1; 0x1.7abcd1d7cebb1p-1 ]
    (Pipeline.run ~users:1_000_000 ~servers:3 ~noise:noise300k ~rounds:8 ())

(* ------------------------------------------------------------------ *)
(* Cost model vs the paper                                             *)
(* ------------------------------------------------------------------ *)

let test_paper_lower_bound () =
  (* §8.2: (3.2e6 × 3)/(3.4e5) ≈ 28 s. *)
  within "lower bound at 2M users" ~pct:3. 28.2
    (Cost_model.conv_lower_bound Cost_model.paper ~users:2_000_000 ~servers:3
       ~noise:noise300k)

let test_paper_noise_total () =
  feq "1.2M noise requests"
    1_200_000.
    (2. *. Cost_model.conv_noise_per_server noise300k)

let test_paper_latencies () =
  let lat users =
    Cost_model.conv_latency Cost_model.paper ~users ~servers:3 ~noise:noise300k
  in
  (* Paper: 20 s at 10 users, 37 s at 1M, 55 s at 2M. *)
  within "10 users" ~pct:10. 20. (lat 10);
  within "1M users" ~pct:10. 37. (lat 1_000_000);
  within "2M users" ~pct:10. 55. (lat 2_000_000)

let test_paper_throughput () =
  (* 65,523 msgs/s, −3.6%: [Cost_model.paper] says why. *)
  within "68K msgs/s at 1M users" ~pct:10. 68_000.
    (Figures.headlines ()).Figures.throughput_1m

let test_paper_client_costs () =
  let h = Figures.headlines () in
  within "client bandwidth ~12 KB/s" ~pct:15. 12_000. h.Figures.client_bandwidth;
  within "dialing drop ~7 MB" ~pct:15. 7e6 h.Figures.drop_bytes;
  within "4 msgs/minute" ~pct:15. 4. h.Figures.messages_per_minute

let test_paper_dialing_noise_count () =
  (* §8.3: "about 39,000 noise invitations" per drop with µ=13K and 3
     servers. *)
  let bytes =
    Cost_model.invitation_drop_bytes ~users:0 ~servers:3 ~m:1
      ~dial_fraction:0. ~dial_noise:Figures.dial_noise_13k
  in
  within "39K noise invitations" ~pct:2. 39_000.
    (bytes /. float_of_int Vuvuzela.Types.invitation_len)

let test_latency_linear_in_users () =
  let lat users =
    Cost_model.conv_latency Cost_model.paper ~users ~servers:3 ~noise:noise300k
  in
  let base = lat 10 in
  let slope1 = (lat 1_000_000 -. base) /. 1e6 in
  let slope2 = (lat 2_000_000 -. lat 1_000_000) /. 1e6 in
  within "constant slope (linear scaling)" ~pct:2. slope1 slope2

let test_noise_independent_of_users () =
  (* §6.4: the cover traffic is the same for 10 users as for 2M. *)
  feq "noise at 10 = noise at 2M"
    (Cost_model.conv_total_requests ~users:0 ~servers:3 ~noise:noise300k)
    (Cost_model.conv_total_requests ~users:2_000_000 ~servers:3 ~noise:noise300k
    -. 2_000_000.)

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let test_figure7_supported_rounds () =
  let curves = Figures.figure7 () in
  let supported mu =
    (List.find (fun c -> c.Figures.mu = mu) curves).Figures.supported_k
  in
  (* Paper: 70K / 250K / 500K (we match within ~10%). *)
  within "µ=150K" ~pct:10. 70_000. (float_of_int (supported 150_000.));
  within "µ=300K" ~pct:10. 250_000. (float_of_int (supported 300_000.));
  within "µ=450K" ~pct:5. 500_000. (float_of_int (supported 450_000.))

let test_figure7_monotone () =
  List.iter
    (fun c ->
      let rec check = function
        | (k1, e1, d1) :: ((k2, e2, d2) :: _ as rest) ->
            if k2 > k1 && (e2 < e1 || d2 < d1) then
              Alcotest.failf "µ=%g: ε′ or δ′ not monotone in k" c.Figures.mu;
            check rest
        | _ -> ()
      in
      check c.Figures.points)
    (Figures.figure7 ())

let test_figure7_ordering () =
  (* More noise ⇒ lower ε′ at the same k. *)
  let curves = Figures.figure7 () in
  let eps_at mu =
    let c = List.find (fun c -> c.Figures.mu = mu) curves in
    let _, e, _ = List.nth c.Figures.points 6 in
    e
  in
  Alcotest.(check bool) "450K < 300K < 150K at mid-k" true
    (eps_at 450_000. < eps_at 300_000. && eps_at 300_000. < eps_at 150_000.)

let test_figure8_supported_rounds () =
  let curves = Figures.figure8 () in
  let supported mu =
    (List.find (fun c -> c.Figures.mu = mu) curves).Figures.supported_k
  in
  (* Paper: 1200 / 3500 / 8000; exact Theorem 2 arithmetic gives the
     same order of magnitude (the paper rounds generously). *)
  within "µ=8K" ~pct:15. 1_200. (float_of_int (supported 8_000.));
  within "µ=13K" ~pct:25. 3_500. (float_of_int (supported 13_000.));
  within "µ=20K" ~pct:25. 8_000. (float_of_int (supported 20_000.))

let test_figure9_shape () =
  let curves = Figures.figure9 () in
  Alcotest.(check int) "three noise levels" 3 (List.length curves);
  let latencies (c : Figures.pipeline_curve) =
    List.map (fun (u, r) -> (u, r.Pipeline.mean_latency)) c.Figures.points
  in
  List.iter
    (fun c ->
      let rec mono = function
        | (u1, l1) :: ((u2, l2) :: _ as rest) ->
            if u2 > u1 && l2 <= l1 then
              Alcotest.failf "%s: latency not increasing" c.Figures.label;
            mono rest
        | _ -> ()
      in
      mono (latencies c))
    curves;
  (* Higher µ ⇒ higher latency at every x. *)
  match curves with
  | [ c100; c200; c300 ] ->
      List.iter2
        (fun (_, l1) (_, l2) ->
          if l1 >= l2 then Alcotest.fail "µ=100K should be below µ=200K")
        (latencies c100) (latencies c200);
      List.iter2
        (fun (_, l2) (_, l3) ->
          if l2 >= l3 then Alcotest.fail "µ=200K should be below µ=300K")
        (latencies c200) (latencies c300)
  | _ -> Alcotest.fail "unexpected curve count"

let test_figure10_shape () =
  let points = Figures.figure10 () in
  let first = snd (List.hd points) in
  let last = snd (List.nth points (List.length points - 1)) in
  within "13 s at 10 users" ~pct:10. 13. first;
  within "50 s at 2M users" ~pct:10. 50. last

let test_figure11_quadratic () =
  let points = Figures.figure11 () in
  let r2 = Figures.quadratic_r2 points in
  if r2 < 0.98 then Alcotest.failf "latency vs servers² fit R²=%.3f" r2;
  within "~140 s at 6 servers" ~pct:10. 140. (snd (List.nth points 5))

let test_pipeline_overlaps_rounds () =
  (* Rounds overlap: the interval between completions is well below the
     end-to-end latency once the pipe is full. *)
  let r = Pipeline.run ~users:1_000_000 ~servers:3 ~noise:noise300k ~rounds:8 () in
  Alcotest.(check int) "all rounds completed" 8 r.Pipeline.rounds_completed;
  if r.Pipeline.round_interval >= r.Pipeline.mean_latency /. 2. then
    Alcotest.failf "no pipelining: interval %.1f vs latency %.1f"
      r.Pipeline.round_interval r.Pipeline.mean_latency

let test_pipeline_utilization () =
  let r = Pipeline.run ~users:1_000_000 ~servers:3 ~noise:noise300k ~rounds:8 () in
  (* Every server works; none exceeds full utilization. *)
  Array.iteri
    (fun i u ->
      if u <= 0.05 || u > 1.0 then
        Alcotest.failf "server %d utilization %.2f out of range" i u)
    r.Pipeline.server_utilization

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"latency increases with servers" ~count:30
      (pair (int_range 1 5) (int_range 0 1_000_000))
      (fun (s, users) ->
        Cost_model.conv_latency Cost_model.paper ~users ~servers:s
          ~noise:noise300k
        < Cost_model.conv_latency Cost_model.paper ~users ~servers:(s + 1)
            ~noise:noise300k);
    Test.make ~name:"throughput positive and bounded by dh rate" ~count:30
      (int_range 1 2_000_000)
      (fun users ->
        let tp =
          (Pipeline.run ~users ~servers:3 ~noise:noise300k ~rounds:6 ())
            .Pipeline.throughput
        in
        tp > 0. && tp < Cost_model.paper.Cost_model.dh_ops_per_sec);
    (* One round through an idle chain is the stage times' sum, in the
       same order, so the two agree in every bit. *)
    Test.make ~name:"conv_latency is one pipeline round" ~count:200
      (triple (int_range 0 2_000_000) (int_range 1 6)
         (float_range 100_000. 300_000.))
      (fun (users, servers, mu) ->
        let noise = Figures.conv_noise_of mu in
        Float.equal
          (Cost_model.conv_latency Cost_model.paper ~users ~servers ~noise)
          (Pipeline.run ~users ~servers ~noise ~rounds:1 ())
            .Pipeline.mean_latency);
  ]

let suite =
  let tc = Alcotest.test_case in
  ( "sim",
    [
      tc "pipeline efficiency in (0, 1]" `Quick test_pipeline_efficiency_range;
      tc "pipeline input checks" `Quick test_pipeline_input_range;
      tc "pipeline figure 9 sweep exact" `Quick test_pipeline_figure9_exact;
      tc "pipeline queueing exact" `Quick test_pipeline_queueing_exact;
      tc "pipeline one server exact" `Quick test_pipeline_one_server_exact;
      tc "pipeline one round exact" `Quick test_pipeline_one_round_exact;
      tc "pipeline paper config exact" `Quick test_pipeline_paper_exact;
      tc "paper lower bound (§8.2)" `Quick test_paper_lower_bound;
      tc "paper noise total" `Quick test_paper_noise_total;
      tc "paper latencies (fig 9 endpoints)" `Quick test_paper_latencies;
      tc "paper throughput" `Quick test_paper_throughput;
      tc "paper client costs (§8.3)" `Quick test_paper_client_costs;
      tc "paper dialing noise count" `Quick test_paper_dialing_noise_count;
      tc "latency linear in users" `Quick test_latency_linear_in_users;
      tc "noise independent of users" `Quick test_noise_independent_of_users;
      tc "figure 7 supported rounds" `Quick test_figure7_supported_rounds;
      tc "figure 7 monotone" `Quick test_figure7_monotone;
      tc "figure 7 ordering" `Quick test_figure7_ordering;
      tc "figure 8 supported rounds" `Quick test_figure8_supported_rounds;
      tc "figure 9 shape" `Quick test_figure9_shape;
      tc "figure 10 endpoints" `Quick test_figure10_shape;
      tc "figure 11 quadratic" `Quick test_figure11_quadratic;
      tc "pipeline overlaps rounds" `Quick test_pipeline_overlaps_rounds;
      tc "pipeline utilization sane" `Quick test_pipeline_utilization;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props )

(* ------------------------------------------------------------------ *)
(* Baselines (§1/§10 related-work comparison)                          *)
(* ------------------------------------------------------------------ *)

let test_baseline_scaling_shapes () =
  (* Broadcast and PIR are quadratic; Vuvuzela is linear.  Doubling the
     users must roughly 4× the baselines but at most ~2× Vuvuzela. *)
  let b n =
    Baselines.broadcast_round_latency Cost_model.paper ~users:n ~msg_bytes:256
  in
  let p n = Baselines.pir_round_latency ~users:n ~msg_bytes:256 in
  let v n = Baselines.vuvuzela_round_latency Cost_model.paper ~users:n ~noise:noise300k in
  let ratio f = f 200_000 /. f 100_000 in
  if Float.abs (ratio b -. 4.) > 0.2 then
    Alcotest.failf "broadcast ratio %.2f not ~4" (ratio b);
  if Float.abs (ratio p -. 4.) > 0.2 then
    Alcotest.failf "pir ratio %.2f not ~4" (ratio p);
  if ratio v > 2.0 then Alcotest.failf "vuvuzela ratio %.2f not sub-linear-ish" (ratio v)

let test_baseline_crossover_claim () =
  (* The paper's claim: prior systems cap at ~5K users (Dissent) while
     Vuvuzela reaches 2M at sub-minute latency — about 100×.  On our
     common constants, with a 60 s round budget: *)
  let budget = 60. in
  let bc =
    Baselines.max_users ~budget (fun n ->
        Baselines.broadcast_round_latency Cost_model.paper ~users:n ~msg_bytes:256)
  in
  let pir =
    Baselines.max_users ~budget (fun n ->
        Baselines.pir_round_latency ~users:n ~msg_bytes:256)
  in
  let vuv =
    Baselines.max_users ~budget (fun n ->
        Baselines.vuvuzela_round_latency Cost_model.paper ~users:n ~noise:noise300k)
  in
  if bc > 100_000 then Alcotest.failf "broadcast supports %d users?!" bc;
  if vuv < 1_500_000 then Alcotest.failf "vuvuzela only %d users" vuv;
  let factor = float_of_int vuv /. float_of_int (max bc pir) in
  if factor < 10. then
    Alcotest.failf "scaling factor only %.0f× over baselines" factor

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "baseline scaling shapes" `Quick test_baseline_scaling_shapes;
        Alcotest.test_case "baseline crossover (100x claim)" `Quick test_baseline_crossover_claim;
      ] )
