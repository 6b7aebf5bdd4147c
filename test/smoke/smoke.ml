(* Telemetry smoke test: a tiny seeded deployment runs a 3-round
   schedule (with one dialing round) under a live sink, exports the
   span trace as JSONL, and validates it — schema check, full six-stage
   coverage for every (round, server) pair, client spans present, and a
   monotone budget ledger.  Fails loudly; no Alcotest machinery.

   The run also collects an observability directory ([SMOKE_OBS_DIR],
   default [smoke-obs/] in the cwd): merged trace, metrics exposition,
   round events and the rendered digest — CI uploads it as the build's
   trace artifact. *)

open Vuvuzela_dp
open Vuvuzela
module T = Vuvuzela_telemetry

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("SMOKE FAIL: " ^ s); exit 1) fmt

let () =
  let tel = T.Telemetry.create () in
  let obs_dir =
    match Sys.getenv_opt "SMOKE_OBS_DIR" with
    | Some d when d <> "" -> d
    | _ -> "smoke-obs"
  in
  let net =
    Network.of_config
      Network.Config.(
        default |> with_seed "smoke"
        |> with_noise (Laplace.params ~mu:3. ~b:1.)
        |> with_dial_noise (Laplace.params ~mu:2. ~b:1.)
        |> with_noise_mode Noise.Sampled |> with_telemetry tel
        |> with_budget_warn 1.0 |> with_obs_dir obs_dir)
  in
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  Client.dial a ~callee_pk:(Client.public_key b);
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  Client.start_conversation b ~peer_pk:(Client.public_key a);
  Client.send a "smoke";
  let reports = Harness.run_schedule ~dial_every:3 net ~rounds:3 in
  Network.shutdown net;
  if List.exists (fun r -> r.Network.failure <> None) reports then
    fail "a round failed";

  (* The exported JSONL passes the schema checker. *)
  let jsonl = T.Trace.to_jsonl (T.Telemetry.trace tel) in
  (match T.Trace.validate_jsonl jsonl with
  | Ok () -> ()
  | Error e -> fail "trace schema: %s" e);

  (* Every (round, server) pair shows all six pipeline stages. *)
  let spans = T.Trace.spans (T.Telemetry.trace tel) in
  List.iter
    (fun r ->
      let round = r.Network.round and dialing = r.Network.dialing in
      for server = 0 to 2 do
        List.iter
          (fun stage ->
            if
              not
                (List.exists
                   (fun sp ->
                     sp.T.Trace.name = stage && sp.T.Trace.round = round
                     && sp.T.Trace.server = server
                     && sp.T.Trace.dialing = dialing)
                   spans)
            then fail "round %d server %d missing stage %s" round server stage)
          T.Telemetry.server_stages
      done)
    reports;

  (* The ledger charged every round and stayed monotone from zero. *)
  (match T.Telemetry.ledger tel with
  | None -> fail "no budget ledger"
  | Some ledger ->
      let conv, dial = T.Ledger.rounds ledger ~client:(Client.public_key a) in
      if (conv, dial) <> (3, 1) then
        fail "ledger charged (%d, %d) rounds, expected (3, 1)" conv dial;
      let w = T.Ledger.worst ledger in
      if not (w.Mechanism.eps > 0. && w.Mechanism.delta > 0.) then
        fail "budget spend not positive");

  (* Shutdown finalized the observability directory: the merged trace
     must validate on its own and the digest must render — this is the
     artifact CI uploads. *)
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let merged = Filename.concat obs_dir "merged-trace.jsonl" in
  if not (Sys.file_exists merged) then fail "%s not written" merged;
  (match T.Trace.validate_jsonl (read_file merged) with
  | Ok () -> ()
  | Error e -> fail "merged trace schema: %s" e);
  (match Obs.render_digest ~dir:obs_dir with
  | Ok digest when String.length digest > 0 -> ()
  | Ok _ -> fail "empty digest"
  | Error e -> fail "digest: %s" e);

  Printf.printf "smoke: %d spans across %d rounds, trace schema OK\n"
    (T.Trace.span_count (T.Telemetry.trace tel))
    (List.length reports);
  Printf.printf "smoke: observability artifact in %s\n" obs_dir
