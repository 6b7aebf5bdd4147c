(* The vuvuzela command-line tool.

     vuvuzela demo      -- run an in-process deployment and chat
     vuvuzela analyze   -- privacy guarantees for given noise parameters
     vuvuzela simulate  -- pipelined rounds on the calibrated cost model
     vuvuzela attack    -- run the disclosure attack (live or model)
     vuvuzela figures   -- regenerate a figure's data series
*)

open Cmdliner
open Vuvuzela_dp
open Vuvuzela

(* ------------------------------------------------------------------ *)
(* demo                                                                *)
(* ------------------------------------------------------------------ *)

let demo users rounds mu seed jobs pipeline deaddrop_shards fault_plan
    round_deadline_ms max_retries admission_ms client_latency budget_warn
    obs_dir =
  let noise = Laplace.params ~mu ~b:(Float.max 1. (mu /. 21.7)) in
  (* Any observability flag turns the sink on; without one the nil sink
     keeps the demo on the exact zero-cost path the tests pin. *)
  let telemetry =
    if budget_warn <> None || obs_dir <> None then
      Some (Vuvuzela_telemetry.Telemetry.create ())
    else None
  in
  let opt f v cfg = match v with None -> cfg | Some v -> f v cfg in
  let net =
    Network.of_config
      Network.Config.(
        default |> with_seed seed |> with_noise noise
        |> with_dial_noise
             (Laplace.params ~mu:(Float.max 1. (mu /. 20.)) ~b:1.)
        |> with_noise_mode Noise.Sampled |> with_jobs jobs
        |> with_pipeline pipeline
        |> with_deaddrop_shards deaddrop_shards
        |> with_max_retries max_retries
        |> opt with_fault_plan fault_plan
        |> opt with_telemetry telemetry
        |> opt with_budget_warn budget_warn
        |> opt with_round_deadline_ms round_deadline_ms
        |> opt with_admission_ms admission_ms
        |> opt with_obs_dir obs_dir
        |> fun cfg ->
        (* An admission window needs arrival times; default the latency
           model when only the window was given so the flag is visible. *)
        match (client_latency, admission_ms) with
        | None, None -> cfg
        | _ ->
            let base_ms, jitter_ms =
              Option.value client_latency ~default:(5., 10.)
            in
            with_client_latency ~base_ms ~jitter_ms cfg)
  in
  let clients =
    List.init (max 2 users) (fun i ->
        Network.connect ~seed:(Printf.sprintf "%s-c%d" seed i) net)
  in
  (* Pair adjacent clients; odd one out idles. *)
  let rec pair i = function
    | a :: b :: rest ->
        Client.start_conversation a ~peer_pk:(Client.public_key b);
        Client.start_conversation b ~peer_pk:(Client.public_key a);
        Client.send a (Printf.sprintf "ping from pair %d" i);
        pair (i + 1) rest
    | _ -> ()
  in
  pair 0 clients;
  Printf.printf "%d clients, 3 servers, noise µ=%.0f, %d job(s); running %d \
                 rounds\n"
    (List.length clients) mu (Network.jobs net) rounds;
  for _ = 1 to rounds do
    let report = Network.run ~kind:Round.Conversation net in
    let round = Network.round net - 1 in
    Format.printf "  %a@." Network.pp_round_report report;
    List.iter
      (fun (c, evs) ->
        List.iter
          (function
            | Client.Delivered { text; _ } ->
                Printf.printf "  round %2d: %s <- %S\n" round
                  (String.sub
                     (Vuvuzela_crypto.Bytes_util.to_hex (Client.public_key c))
                     0 8)
                  text
            | Client.Round_failed { status; _ } ->
                Format.printf "  round %2d: %s round failed (%a)@." round
                  (String.sub
                     (Vuvuzela_crypto.Bytes_util.to_hex (Client.public_key c))
                     0 8)
                  Rpc.pp_status status
            | _ -> ())
          evs)
      report.Network.events;
    match Chain.observed_histogram (Network.chain net) with
    | Some h ->
        Printf.printf "  round %2d: observable view m1=%d m2=%d\n" round
          h.Deaddrop.m1 h.Deaddrop.m2
    | None -> ()
  done;
  (* Print the budget ledger's verdict; --obs-dir's files are written
     when the network shuts down. *)
  Option.iter
    (fun tel ->
      let module T = Vuvuzela_telemetry in
      Option.iter
        (fun ledger ->
          let worst = T.Ledger.worst ledger in
          Printf.printf
            "privacy budget: %d clients, worst eps'=%.3f delta'=%.2e%s\n"
            (T.Ledger.clients ledger)
            worst.Mechanism.eps worst.Mechanism.delta
            (match T.Ledger.warn_eps ledger with
            | Some w ->
                Printf.sprintf " (%d over eps'=%.3f)"
                  (T.Ledger.over_budget ledger) w
            | None -> ""))
        (T.Telemetry.ledger tel))
    telemetry;
  Network.shutdown net;
  Option.iter
    (fun dir -> Printf.printf "observability written to %s\n" dir)
    obs_dir;
  0

let demo_cmd =
  let users =
    Arg.(value & opt int 6 & info [ "users"; "n" ] ~doc:"Number of clients.")
  in
  let rounds =
    Arg.(value & opt int 5 & info [ "rounds"; "r" ] ~doc:"Conversation rounds.")
  in
  let mu =
    Arg.(value & opt float 20. & info [ "mu" ] ~doc:"Noise mean per server.")
  in
  let seed =
    Arg.(value & opt string "demo" & info [ "seed" ] ~doc:"Deterministic seed.")
  in
  let jobs =
    let positive =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | Some _ -> Error (`Msg "JOBS must be >= 1")
        | None -> Error (`Msg (Printf.sprintf "invalid value %S" s))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(
      value & opt positive 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker domains for the servers' per-onion crypto (results are \
             identical at any value).")
  in
  let pipeline =
    Arg.(
      value & flag
      & info [ "pipeline" ]
          ~doc:
            "Relay batches between servers as streamed chunked parts, so a \
             server starts peeling before its predecessor finishes (results \
             are identical either way).")
  in
  let deaddrop_shards =
    Arg.(
      value & opt int 1
      & info [ "deaddrop-shards" ] ~docv:"N"
          ~doc:
            "Shards for the last server's dead-drop store: drops route by \
             id prefix and the exchange pair-matches per shard over the \
             worker domains (results are identical at any count).")
  in
  let fault_plan =
    let plan_conv =
      let parse s =
        match Vuvuzela_faults.Fault.parse s with
        | Ok plan -> Ok (Some plan)
        | Error e -> Error (`Msg e)
      in
      let pp ppf = function
        | None -> Format.pp_print_string ppf ""
        | Some plan ->
            Format.pp_print_string ppf (Vuvuzela_faults.Fault.to_string plan)
      in
      Arg.conv (parse, pp)
    in
    Arg.(
      value & opt plan_conv None
      & info [ "fault-plan" ] ~docv:"PLAN"
          ~doc:
            "Inject deterministic faults at the chain's links, e.g. \
             'crash@2;corrupt(3)@4:1' (kind@round:server, ';'-separated; \
             kinds: crash, drop, corrupt(byte), truncate(n), pad(n), \
             delay(ms), tamper(slot)).")
  in
  let round_deadline_ms =
    Arg.(
      value & opt (some float) None
      & info [ "round-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Abort (and retry) any round attempt that exceeds this many \
             milliseconds, injected delays included.")
  in
  let max_retries =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ]
          ~doc:"Retries per round after the first attempt fails.")
  in
  let admission_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "admission-ms" ] ~docv:"MS"
          ~doc:
            "Entry-tier admission window: each round attempt admits only \
             the clients whose emulated arrival (see \
             $(b,--client-latency)) lands within MS milliseconds; \
             stragglers get a typed Late answer, their payloads are \
             requeued, and the round runs degraded with whoever showed \
             up.")
  in
  let client_latency =
    let lat_conv =
      let parse s =
        match Vuvuzela_transport.Shaper.parse s with
        | Ok c ->
            Ok
              (Some
                 ( c.Vuvuzela_transport.Shaper.latency_ms,
                   c.Vuvuzela_transport.Shaper.jitter_ms ))
        | Error e -> Error (`Msg e)
      in
      let pp ppf = function
        | None -> Format.pp_print_string ppf ""
        | Some (b, j) -> Format.fprintf ppf "%g±%g" b j
      in
      Arg.conv (parse, pp)
    in
    Arg.(
      value
      & opt lat_conv None
      & info [ "client-latency" ] ~docv:"BASE[±JIT]"
          ~doc:
            "Emulated client → entry arrival latency in milliseconds \
             (e.g. '5±10'), drawn per client per attempt from the \
             deployment seed; feeds the $(b,--admission-ms) check.  \
             Defaults to 5±10 when only the window is given.")
  in
  let budget_warn =
    Arg.(
      value & opt (some float) None
      & info [ "budget-warn" ] ~docv:"EPS"
          ~doc:
            "Track each client's cumulative privacy spend (Theorem 2 \
             composition over attempted rounds) and warn when ε' crosses \
             EPS.  Also enables the budget gauges in $(b,--obs-dir)'s metrics.")
  in
  let obs_dir =
    Arg.(
      value & opt (some string) None
      & info [ "obs-dir" ] ~docv:"DIR"
          ~doc:
            "Collect observability into DIR: a per-round JSONL event \
             log while running, plus the trace, metrics and a \
             human-readable round digest on exit (re-render it any time \
             with $(b,vuvuzela inspect DIR)).")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"run an in-process Vuvuzela deployment")
    Term.(
      const demo $ users $ rounds $ mu $ seed $ jobs $ pipeline
      $ deaddrop_shards $ fault_plan $ round_deadline_ms $ max_retries
      $ admission_ms $ client_latency $ budget_warn $ obs_dir)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze mu b dialing =
  let p = Laplace.params ~mu ~b in
  let protocol =
    if dialing then Composition.Dialing else Composition.Conversation
  in
  let g = Composition.per_round_of protocol p in
  Printf.printf "noise: %s µ=%.0f b=%.1f\n"
    (if dialing then "dialing" else "conversation")
    mu b;
  Printf.printf "per-round guarantee: ε=%.4e δ=%.4e\n" g.Mechanism.eps
    g.Mechanism.delta;
  let k = Composition.max_rounds g in
  Printf.printf "supports %d rounds at ε'=ln 2, δ'=1e-4\n" k;
  List.iter
    (fun frac ->
      let kk = max 1 (k * frac / 100) in
      let c = Composition.compose ~k:kk ~d:Composition.default_d g in
      Printf.printf
        "  after %8d rounds: e^ε'=%.3f δ'=%.2e -> 50%% prior can reach %.1f%%\n"
        kk (exp c.Mechanism.eps) c.Mechanism.delta
        (100. *. Bayes.posterior ~prior:0.5 ~eps:c.Mechanism.eps))
    [ 10; 50; 100 ];
  0

let analyze_cmd =
  let mu = Arg.(value & opt float 300_000. & info [ "mu" ] ~doc:"Noise mean.") in
  let b = Arg.(value & opt float 13_800. & info [ "b" ] ~doc:"Noise scale.") in
  let dialing =
    Arg.(value & flag & info [ "dialing" ] ~doc:"Analyze the dialing protocol.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"privacy guarantees for noise parameters")
    Term.(const analyze $ mu $ b $ dialing)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate users servers mu =
  let open Vuvuzela_sim in
  let noise = Laplace.params ~mu ~b:(mu /. 21.7) in
  let model = Cost_model.paper in
  let r = Pipeline.run ~model ~users ~servers ~noise ~rounds:6 () in
  Printf.printf "%d users, %d servers, µ=%.0f (paper's testbed constants)\n"
    users servers mu;
  Printf.printf
    "pipeline: latency %.3g s, interval %.3g s, %.0f msg/s, server bw %.0f \
     MB/s, utilization [%s]\n"
    r.Pipeline.mean_latency r.Pipeline.round_interval r.Pipeline.throughput
    (Cost_model.server_bandwidth model ~users ~servers ~noise
       ~round_interval:r.Pipeline.round_interval
    /. 1e6)
    (String.concat "; "
       (Array.to_list
          (Array.map (Printf.sprintf "%.2f") r.Pipeline.server_utilization)));
  0

let simulate_cmd =
  let users = Arg.(value & opt int 1_000_000 & info [ "users"; "n" ] ~doc:"Users.") in
  let servers = Arg.(value & opt int 3 & info [ "servers"; "s" ] ~doc:"Chain length.") in
  let mu = Arg.(value & opt float 300_000. & info [ "mu" ] ~doc:"Noise mean.") in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"six pipelined rounds on the calibrated cost model")
    Term.(const simulate $ users $ servers $ mu)

(* ------------------------------------------------------------------ *)
(* attack                                                              *)
(* ------------------------------------------------------------------ *)

let attack live mu rounds talking seed =
  let noise = Laplace.params ~mu ~b:(Float.max 0.01 (mu /. 21.7)) in
  let v =
    if live then
      Vuvuzela_attack.Disclosure.network_attack ~idle_users:4 ~noise ~talking
        ~rounds ~prior:0.5 ~seed ()
    else begin
      let rng = Vuvuzela_crypto.Drbg.of_string seed in
      Vuvuzela_attack.Disclosure.model_attack ~rng ~noise ~talking ~rounds
        ~prior:0.5 ()
    end
  in
  Format.printf
    "disclosure attack (%s, µ=%.1f, %d rounds, truth=%b):@.  %a@."
    (if live then "live implementation" else "closed-form model")
    mu rounds talking Vuvuzela_attack.Disclosure.pp_verdict v;
  let g = Mechanism.conversation noise in
  Printf.printf "  DP budget for these rounds: |logLR| ≤ %.3f\n"
    (float_of_int rounds *. g.Mechanism.eps);
  0

let attack_cmd =
  let live = Arg.(value & flag & info [ "live" ] ~doc:"Attack the real implementation.") in
  let mu = Arg.(value & opt float 60. & info [ "mu" ] ~doc:"Noise mean.") in
  let rounds = Arg.(value & opt int 12 & info [ "rounds" ] ~doc:"Rounds observed.") in
  let talking =
    Arg.(value & opt bool true & info [ "talking" ] ~doc:"Ground truth.")
  in
  let seed = Arg.(value & opt string "attack" & info [ "seed" ] ~doc:"Seed.") in
  Cmd.v
    (Cmd.info "attack" ~doc:"run the statistical disclosure attack")
    Term.(const attack $ live $ mu $ rounds $ talking $ seed)

(* ------------------------------------------------------------------ *)
(* figures                                                             *)
(* ------------------------------------------------------------------ *)

let figures which =
  (match which with
  | "6" -> Format.printf "%a" Vuvuzela_attack.Observation.pp_table ()
  | "7" | "8" ->
      let curves =
        if which = "7" then Vuvuzela_sim.Figures.figure7 ()
        else Vuvuzela_sim.Figures.figure8 ()
      in
      List.iter
        (fun (c : Vuvuzela_sim.Figures.privacy_curve) ->
          Printf.printf "# mu=%.0f b=%.0f (supported k=%d)\n" c.mu c.b
            c.supported_k;
          List.iter
            (fun (k, e, d) -> Printf.printf "%d\t%.4f\t%.4e\n" k e d)
            c.points)
        curves
  | "9" ->
      List.iter
        (fun (c : Vuvuzela_sim.Figures.pipeline_curve) ->
          Printf.printf "# %s (users, latency s, round interval s)\n" c.label;
          List.iter
            (fun (u, (r : Vuvuzela_sim.Pipeline.result)) ->
              Printf.printf "%d\t%.2f\t%.2f\n" u r.mean_latency
                r.round_interval)
            c.points)
        (Vuvuzela_sim.Figures.figure9 ())
  | "10" ->
      List.iter
        (fun (u, l) -> Printf.printf "%d\t%.2f\n" u l)
        (Vuvuzela_sim.Figures.figure10 ())
  | "11" ->
      List.iter
        (fun (s, l) -> Printf.printf "%d\t%.2f\n" s l)
        (Vuvuzela_sim.Figures.figure11 ())
  | s -> Printf.printf "unknown figure %S (choose 6..11)\n" s);
  0

let figures_cmd =
  let which =
    Arg.(value & pos 0 string "9" & info [] ~docv:"FIGURE" ~doc:"6..11")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"regenerate a figure's data series (TSV)")
    Term.(const figures $ which)

(* ------------------------------------------------------------------ *)
(* keygen                                                              *)
(* ------------------------------------------------------------------ *)

let keygen seed =
  let open Vuvuzela_crypto in
  let conv_id =
    match seed with
    | Some s -> Types.identity_of_seed (Bytes.of_string s)
    | None -> Types.fresh_identity ()
  in
  let sign_sk, sign_pk =
    match seed with
    | Some s -> Ed25519.keypair ~rng:(Drbg.of_string (s ^ "-signing")) ()
    | None -> Ed25519.keypair ()
  in
  Printf.printf "conversation secret: %s\n" (Bytes_util.to_hex conv_id.Types.secret);
  Printf.printf "conversation public: %s\n" (Bytes_util.to_hex conv_id.Types.public);
  Printf.printf "signing secret:      %s\n" (Bytes_util.to_hex sign_sk);
  Printf.printf "signing public:      %s\n" (Bytes_util.to_hex sign_pk);
  Printf.printf
    "\nshare the PUBLIC keys out of band (§9: clients store contacts' keys \
     ahead of time).\n";
  0

let keygen_cmd =
  let seed =
    Arg.(
      value
      & opt (some string) None
      & info [ "seed" ] ~doc:"Deterministic derivation (testing only!).")
  in
  Cmd.v
    (Cmd.info "keygen" ~doc:"generate a Vuvuzela identity (X25519 + Ed25519)")
    Term.(const keygen $ seed)

(* ------------------------------------------------------------------ *)
(* cert                                                                *)
(* ------------------------------------------------------------------ *)

let cert signing_sk_hex subject_hex name expires verify_hex =
  let open Vuvuzela_crypto in
  match verify_hex with
  | Some cert_hex -> (
      match Certificate.decode (Bytes_util.of_hex cert_hex) with
      | Error e ->
          Printf.printf "malformed certificate: %s\n" e;
          1
      | Ok c -> (
          Printf.printf "subject: %s\n" (Bytes_util.to_hex c.Certificate.subject_pk);
          Printf.printf "issuer:  %s\n" (Bytes_util.to_hex c.Certificate.issuer_pk);
          Printf.printf "expires: dialing round %d\n" c.Certificate.expires;
          match
            Certificate.verify ~now:0 ~trusted:(fun _ -> true) c
          with
          | Ok () ->
              Printf.printf "signature: VALID (trust the issuer key yourself!)\n";
              0
          | Error e ->
              Format.printf "signature: INVALID (%a)@." Certificate.pp_error e;
              1))
  | None -> (
      match (signing_sk_hex, subject_hex) with
      | Some sk_hex, Some subject_hex ->
          let cert =
            Certificate.issue
              ~issuer_sk:(Bytes_util.of_hex sk_hex)
              ~subject_pk:(Bytes_util.of_hex subject_hex)
              ~name ~expires
          in
          Printf.printf "%s\n" (Bytes_util.to_hex (Certificate.encode cert));
          0
      | _ ->
          Printf.printf
            "pass --signing-sk and --subject to issue, or --verify CERT.\n";
          1)

let cert_cmd =
  let sk =
    Arg.(value & opt (some string) None & info [ "signing-sk" ] ~doc:"Issuer Ed25519 seed (hex).")
  in
  let subject =
    Arg.(value & opt (some string) None & info [ "subject" ] ~doc:"Subject X25519 public key (hex).")
  in
  let name_t = Arg.(value & opt string "anonymous" & info [ "name" ] ~doc:"Display name to bind.") in
  let expires_t = Arg.(value & opt int 1000 & info [ "expires" ] ~doc:"Last valid dialing round.") in
  let verify =
    Arg.(value & opt (some string) None & info [ "verify" ] ~doc:"Decode and check a certificate (hex).")
  in
  Cmd.v
    (Cmd.info "cert" ~doc:"issue or inspect a §9 caller certificate")
    Term.(const cert $ sk $ subject $ name_t $ expires_t $ verify)

(* ------------------------------------------------------------------ *)
(* baselines                                                           *)
(* ------------------------------------------------------------------ *)

let baselines budget =
  let noise = Vuvuzela_sim.Figures.conv_noise_of 300_000. in
  Printf.printf "%-12s %14s %14s %14s\n" "users" "vuvuzela" "broadcast" "PIR";
  List.iter
    (fun (r : Vuvuzela_sim.Baselines.comparison_row) ->
      Printf.printf "%-12d %12.1f s %12.1f s %12.1f s\n" r.users r.vuvuzela_s
        r.broadcast_s r.pir_s)
    (Vuvuzela_sim.Baselines.comparison_table ~noise
       [ 1_000; 5_000; 50_000; 500_000; 2_000_000 ]);
  let cap f = Vuvuzela_sim.Baselines.max_users ~budget f in
  Printf.printf
    "max users within %.0f s: broadcast %d, PIR %d, vuvuzela %d\n" budget
    (cap (fun n ->
         Vuvuzela_sim.Baselines.broadcast_round_latency
           Vuvuzela_sim.Cost_model.paper ~users:n ~msg_bytes:256))
    (cap (fun n -> Vuvuzela_sim.Baselines.pir_round_latency ~users:n ~msg_bytes:256))
    (cap (fun n ->
         Vuvuzela_sim.Baselines.vuvuzela_round_latency
           Vuvuzela_sim.Cost_model.paper ~users:n ~noise));
  0

let baselines_cmd =
  let budget =
    Arg.(value & opt float 60. & info [ "budget" ] ~doc:"Round latency budget (s).")
  in
  Cmd.v
    (Cmd.info "baselines" ~doc:"compare against O(n^2) prior systems (§1/§10)")
    Term.(const baselines $ budget)

(* ------------------------------------------------------------------ *)
(* inspect                                                             *)
(* ------------------------------------------------------------------ *)

let inspect dir =
  match Obs.render_digest ~dir with
  | Ok digest ->
      print_string digest;
      `Ok 0
  | Error e -> `Error (false, e)

let inspect_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:
            "An observability directory written by a deployment's \
             $(b,--obs-dir) mode.")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "render the per-round digest of an --obs-dir collection: one \
          line per round, hop-by-hop latency waterfalls from the merged \
          cross-process trace, the abort/late timeline, and the \
          cumulative privacy spend")
    Term.(ret (const inspect $ dir))

let () =
  let doc = "Vuvuzela: scalable private messaging (SOSP 2015) in OCaml" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "vuvuzela" ~doc)
          [
            demo_cmd; analyze_cmd; simulate_cmd; attack_cmd; figures_cmd;
            keygen_cmd; cert_cmd; baselines_cmd; inspect_cmd;
          ]))
