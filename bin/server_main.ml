(* vuvuzela-server: one chain server as an OS process (§7).

   A chain of N servers is N processes plus the coordinator:

     vuvuzela-server --listen :7002 --index 2 --chain-len 3 --seed s &
     vuvuzela-server --listen :7001 --next :7002 --index 1 --chain-len 3 --seed s &
     vuvuzela-server --listen :7000 --next :7001 --index 0 --chain-len 3 --seed s &

   and a coordinator built on [Network.of_config_tcp ~addr:(":7000")].
   Runs until the coordinator sends Bye. *)

open Cmdliner
open Vuvuzela_dp
open Vuvuzela

let addr_conv =
  let parse s =
    match Vuvuzela_transport.Addr.parse s with
    | Ok a -> Ok a
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    (parse, fun ppf a -> Format.pp_print_string ppf (Vuvuzela_transport.Addr.to_string a))

let fault_plan_conv =
  let parse s =
    match Vuvuzela_faults.Fault.parse s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    (parse, fun ppf p ->
      Format.pp_print_string ppf (Vuvuzela_faults.Fault.to_string p))

let link_conv =
  let parse s =
    match Vuvuzela_transport.Shaper.parse s with
    | Ok c -> Ok c
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    (parse, fun ppf c ->
      Format.pp_print_string ppf (Vuvuzela_transport.Shaper.to_string c))

let run listen next index chain_len seed mu b dial_mu dial_b det_noise
    certified jobs deaddrop_shards pipeline pipeline_chunk fault_plan
    link flap_grace_ms metrics_listen trace_out quiet =
  let log =
    if quiet then fun _ -> ()
    else fun msg -> Printf.eprintf "[vuvuzela-server %d] %s\n%!" index msg
  in
  let deployment =
    Config.(
      {
        default with
        seed;
        n_servers = chain_len;
        noise = Laplace.params ~mu ~b;
        dial_noise = Laplace.params ~mu:dial_mu ~b:dial_b;
        noise_mode = (if det_noise then Noise.Deterministic else Noise.Sampled);
        dial_kind = (if certified then Dialing.Certified else Dialing.Plain);
        jobs;
        fault_plan;
        link;
        flap_grace_ms;
      }
      |> with_deaddrop_shards deaddrop_shards
      |> with_pipeline ~chunk:pipeline_chunk pipeline)
  in
  let cfg =
    { Daemon.listen; next; index; deployment; metrics_listen; trace_out }
  in
  match Daemon.run ~log cfg with
  | Ok () -> `Ok ()
  | Error e -> `Error (false, e)

let cmd =
  let listen =
    Arg.(
      required
      & opt (some addr_conv) None
      & info [ "listen"; "l" ] ~docv:"HOST:PORT"
          ~doc:"Address to accept the upstream hop on.")
  in
  let next =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "next" ] ~docv:"HOST:PORT"
          ~doc:
            "Next server in the chain; omit on the last server. Dialed \
             with reconnect/backoff, so start order does not matter.")
  in
  let index =
    Arg.(
      required
      & opt (some int) None
      & info [ "index"; "i" ] ~docv:"I" ~doc:"0-based chain position.")
  in
  let chain_len =
    Arg.(value & opt int 3 & info [ "chain-len" ] ~doc:"Servers in the chain.")
  in
  let seed =
    Arg.(
      value
      & opt (some string) None
      & info [ "seed" ]
          ~doc:
            "Deployment seed; every server must use the same one. A seeded \
             multi-process chain is bit-identical to the in-process chain \
             with that seed.")
  in
  let mu = Arg.(value & opt float 10. & info [ "mu" ] ~doc:"Conversation noise mean.") in
  let b =
    Arg.(
      value & opt float 2.
      & info [ "b"; "noise-b" ] ~doc:"Conversation noise scale.")
  in
  let dial_mu =
    Arg.(value & opt float 3. & info [ "dial-mu" ] ~doc:"Dialing noise mean.")
  in
  let dial_b =
    Arg.(value & opt float 1. & info [ "dial-b" ] ~doc:"Dialing noise scale.")
  in
  let det_noise =
    Arg.(
      value & flag
      & info [ "deterministic-noise" ]
          ~doc:"Always add exactly µ noise (the paper's §8.1 evaluation mode).")
  in
  let certified =
    Arg.(
      value & flag
      & info [ "certified" ] ~doc:"Certified (signed) dialing invitations.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~doc:"Crypto worker domains.")
  in
  let deaddrop_shards =
    Arg.(
      value & opt int 1
      & info [ "deaddrop-shards" ] ~docv:"N"
          ~doc:
            "Shards for the conversation dead-drop store (last server): \
             drops route by id prefix and the exchange pair-matches per \
             shard over the worker domains. Results are bit-identical \
             for any count.")
  in
  let pipeline =
    Arg.(
      value & flag
      & info [ "pipeline" ]
          ~doc:
            "Stream forward batches to the next server as chunked parts so \
             it starts peeling before the whole batch arrives. Results are \
             bit-identical either way.")
  in
  let pipeline_chunk =
    Arg.(
      value & opt int 16
      & info [ "pipeline-chunk" ] ~docv:"N"
          ~doc:"Onions per streamed part (with $(b,--pipeline)).")
  in
  let fault_plan =
    Arg.(
      value
      & opt (some fault_plan_conv) None
      & info [ "fault-plan" ] ~docv:"PLAN"
          ~doc:
            "Deterministic socket-level fault schedule for this server's \
             incoming link, e.g. 'crash@2:1;drop@4:1' (entries must name \
             this server's index).")
  in
  let link_latency =
    Arg.(
      value
      & opt (some link_conv) None
      & info [ "link-latency" ] ~docv:"LAT[±JIT][@BW]"
          ~doc:
            "Emulate WAN characteristics on the downstream link: one-way \
             latency in ms, optional ± jitter in ms, optional @ bandwidth \
             in bytes/sec (k/m suffixes), e.g. '25', '25±5', '50±10@1m'. \
             Jitter is DRBG-seeded per link when $(b,--seed) is set.")
  in
  let flap_grace_ms =
    Arg.(
      value & opt float 2000.
      & info [ "flap-grace-ms" ] ~docv:"MS"
          ~doc:
            "A round in flight when the downstream link drops survives if \
             its reply arrives within $(docv) ms of the drop, and is \
             otherwise answered upstream with a retryable status when the \
             grace ends; 0 answers on the drop.")
  in
  let metrics_listen =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "metrics-listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Serve scrape endpoints on this address: $(b,/metrics) \
             (Prometheus text), $(b,/healthz) (JSON liveness: chain \
             position, peer connectivity, round progress, uptime), and \
             $(b,/trace) (the span trace as JSONL). Served from the \
             daemon's own event loop; scrapes never block a round.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write this server's span trace (JSONL) here on shutdown, \
             ready for the coordinator's cross-process merge.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No stderr log.") in
  Cmd.v
    (Cmd.info "vuvuzela-server" ~version:"0.1.0"
       ~doc:"one Vuvuzela chain server as its own process")
    Term.(
      ret
        (const run $ listen $ next $ index $ chain_len $ seed $ mu $ b
       $ dial_mu $ dial_b $ det_noise $ certified $ jobs $ deaddrop_shards
       $ pipeline $ pipeline_chunk $ fault_plan $ link_latency $ flap_grace_ms
       $ metrics_listen $ trace_out $ quiet))

let () = exit (Cmd.eval cmd)
