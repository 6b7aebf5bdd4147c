(* Loopback multi-process deployment: 3 forked server daemons, a
   coordinator in this process, real TCP on 127.0.0.1.

   The checks mirror the ISSUE's acceptance gate:
   - a seeded 3-server deployment runs 3 conversation rounds and a
     dialing round whose wire transcript digest is bit-identical to the
     in-process chain's (and to the pinned constant) — with one
     whole-batch part per link, and again with parts of 4 onions;
   - a full [Network.of_config_tcp] deployment delivers messages and
     confirms dialing acks over the supervisor;
   - a chain whose daemons start upstream first still assembles and
     delivers;
   - a crash fault at a middle server is survived by the supervisor's
     retry path within [max_retries];
   - a middle server killed with SIGKILL and restarted from its seed is
     survived the same way;
   - a middle or first server restarted from another seed (so with
     another key) fails the next round with the key-change status;
   - a flap on the coordinator's or the middle link costs no attempt,
     and a partition costs one retry after the grace, not the deadline;
   - a trace context crosses a middle daemon that does not trace;
   - a first hop that answers nothing cannot stretch a round past its
     deadline by sending stale frames.

   Plain executable: forking is only safe in a process that never
   spawned a domain, so this cannot live inside the alcotest binary. *)

open Vuvuzela_dp
open Vuvuzela
module Addr = Vuvuzela_transport.Addr
module Fault = Vuvuzela_faults.Fault

let failures = ref 0

let check name cond =
  if cond then Printf.printf "  ok: %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  FAIL: %s\n%!" name
  end

let check_str name expected got =
  if expected = got then Printf.printf "  ok: %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  FAIL: %s\n    expected %s\n    got      %s\n%!" name
      expected got
  end

(* ------------------------------------------------------------------ *)
(* Process plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let chain_len = 3

let daemon_cfg ~seed ~ports ~index ?fault_plan ?pipeline_chunk ?link
    ?(flap_grace_ms = 2000.) ?(jobs = 1) ?(deaddrop_shards = 1) ?metrics_port
    () =
  let opt f v cfg = match v with None -> cfg | Some v -> f v cfg in
  {
    Daemon.listen = Addr.loopback ~port:ports.(index);
    next =
      (if index = chain_len - 1 then None
       else Some (Addr.loopback ~port:ports.(index + 1)));
    index;
    deployment =
      Config.(
        default |> with_seed seed |> with_n_servers chain_len
        |> with_noise Transcript_pin.noise
        |> with_dial_noise Transcript_pin.dial_noise
        |> with_noise_mode Noise.Deterministic |> with_jobs jobs
        |> with_deaddrop_shards deaddrop_shards
        |> with_flap_grace_ms flap_grace_ms
        |> opt with_fault_plan fault_plan |> opt with_link link
        |> opt (fun chunk -> with_pipeline ~chunk true) pipeline_chunk);
    metrics_listen = Option.map (fun port -> Addr.loopback ~port) metrics_port;
    trace_out = None;
  }

let debug = Sys.getenv_opt "NET_DEBUG" <> None

let fork_daemon cfg =
  match Unix.fork () with
  | 0 ->
      let log =
        if debug then fun m ->
          Printf.eprintf "[daemon %d] %s\n%!" cfg.Daemon.index m
        else fun _ -> ()
      in
      (* A failed start is printed whatever [debug] says, so a handshake
         that times out later names its cause. *)
      (match Daemon.run ~log cfg with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "[daemon %d] startup error: %s\n%!" cfg.Daemon.index
            e
      | exception e ->
          Printf.eprintf "[daemon %d] exception: %s\n%!" cfg.Daemon.index
            (Printexc.to_string e));
      Unix._exit 0
  | pid -> pid

let spawn_chain ?fault_plan_for ?pipeline_chunk ?jobs ?deaddrop_shards
    ?flap_grace_ms ~seed ports =
  Array.to_list
    (Array.init chain_len (fun i ->
         (* last server first, so the handshake cascade settles fast;
            dial-with-backoff makes any order work (see
            [test_upstream_first]) *)
         let index = chain_len - 1 - i in
         let fault_plan =
           match fault_plan_for with
           | Some (j, plan) when j = index -> Some plan
           | _ -> None
         in
         fork_daemon
           (daemon_cfg ~seed ~ports ~index ?fault_plan ?pipeline_chunk ?jobs
              ?deaddrop_shards ?flap_grace_ms ())))

let with_chain ?fault_plan_for ?pipeline_chunk ?jobs ?deaddrop_shards
    ?flap_grace_ms ~seed f =
  let ports = Daemon_spawn.free_ports chain_len in
  let pids =
    spawn_chain ?fault_plan_for ?pipeline_chunk ?jobs ?deaddrop_shards
      ?flap_grace_ms ~seed ports
  in
  Fun.protect
    ~finally:(fun () -> List.iter Daemon_spawn.stop_pid pids)
    (fun () -> f ports)

(* ------------------------------------------------------------------ *)
(* 1. Transcript parity: TCP chain ≡ in-process chain, bit for bit     *)
(* ------------------------------------------------------------------ *)

let test_transcript_parity () =
  print_endline "transcript parity (3 conv rounds + 1 dialing round):";
  with_chain ~seed:Transcript_pin.seed (fun ports ->
      match
        Remote.connect ~handshake_timeout_ms:20_000.
          ~addr:(Addr.loopback ~port:ports.(0))
          ()
      with
      | Error e -> check ("remote connect: " ^ e) false
      | Ok remote ->
          Remote.set_deadline_ms remote (Some 30_000.);
          let backend = Transcript_pin.of_remote remote in
          check "3 server public keys over handshake"
            (List.length backend.Transcript_pin.pks = chain_len);
          let tcp_digest = Transcript_pin.full_digest backend in
          check_str "loopback digest = pinned digest"
            Transcript_pin.pinned_full_digest tcp_digest;
          let in_process_digest =
            let b, shutdown = Transcript_pin.in_process () in
            Fun.protect ~finally:shutdown (fun () ->
                Transcript_pin.full_digest b)
          in
          check_str "loopback digest = in-process digest" in_process_digest
            tcp_digest;
          let stats = Remote.stats remote in
          check "wire counters moved"
            (stats.Vuvuzela_transport.Conn.bytes_out > 0
            && stats.Vuvuzela_transport.Conn.bytes_in > 0);
          Remote.shutdown remote)

(* ------------------------------------------------------------------ *)
(* 1b. Same parity with every link carrying parts of 4 onions          *)
(* ------------------------------------------------------------------ *)

let test_transcript_parity_pipelined () =
  print_endline "pipelined transcript parity (chunk 4 on every link):";
  with_chain ~pipeline_chunk:4 ~seed:Transcript_pin.seed (fun ports ->
      match
        Remote.connect ~handshake_timeout_ms:20_000.
          ~addr:(Addr.loopback ~port:ports.(0))
          ()
      with
      | Error e -> check ("remote connect: " ^ e) false
      | Ok remote ->
          Remote.set_deadline_ms remote (Some 30_000.);
          Remote.set_pipeline remote (Some 4);
          let backend = Transcript_pin.of_remote remote in
          let tcp_digest = Transcript_pin.full_digest backend in
          check_str "pipelined loopback digest = pinned digest"
            Transcript_pin.pinned_full_digest tcp_digest;
          Remote.shutdown remote)

(* ------------------------------------------------------------------ *)
(* 1c. Scale-plane parity: sharded dead drops + streamed entry tier    *)
(*     over real daemons, at jobs 1 and 4 — still the pinned bytes     *)
(* ------------------------------------------------------------------ *)

let test_transcript_parity_scale_plane () =
  print_endline
    "scale-plane transcript parity (4 dead-drop shards, streamed entry):";
  List.iter
    (fun jobs ->
      with_chain ~pipeline_chunk:4 ~jobs ~deaddrop_shards:4
        ~seed:Transcript_pin.seed (fun ports ->
          match
            Remote.connect ~handshake_timeout_ms:20_000.
              ~addr:(Addr.loopback ~port:ports.(0))
              ()
          with
          | Error e -> check ("remote connect: " ^ e) false
          | Ok remote ->
              Remote.set_deadline_ms remote (Some 30_000.);
              let fail_status st =
                failwith (Format.asprintf "%a" Rpc.pp_status st)
              in
              (* Awkward chunk size on purpose: the last part is a
                 short tail, exercising the [last]-frame path. *)
              let chunk = 3 in
              let feed_chunks requests feed =
                let n = Array.length requests in
                let off = ref 0 in
                while !off < n do
                  let len = min chunk (n - !off) in
                  feed (Array.sub requests !off len);
                  off := !off + len
                done
              in
              let backend =
                {
                  Transcript_pin.pks = Remote.public_keys remote;
                  conversation_round =
                    (fun ~round requests ->
                      match
                        Remote.conversation_round_streamed remote ~round
                          ~produce:(feed_chunks requests)
                      with
                      | Ok replies -> replies
                      | Error st -> fail_status st);
                  dialing_round =
                    (fun ~round ~m requests ->
                      match
                        Remote.dialing_round_streamed remote ~round ~m
                          ~produce:(feed_chunks requests)
                      with
                      | Ok acks -> acks
                      | Error st -> fail_status st);
                }
              in
              let tcp_digest = Transcript_pin.full_digest backend in
              check_str
                (Printf.sprintf
                   "sharded+streamed loopback digest = pinned digest (jobs=%d)"
                   jobs)
                Transcript_pin.pinned_full_digest tcp_digest;
              Remote.shutdown remote))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* 2. Full supervisor over TCP: delivery + dialing acks                *)
(* ------------------------------------------------------------------ *)

let tcp_config =
  Network.Config.(
    default |> with_noise Transcript_pin.noise
    |> with_dial_noise Transcript_pin.dial_noise
    |> with_handshake_timeout_ms 20_000.)

let test_network_smoke () =
  print_endline "Network.of_config_tcp smoke (4 clients):";
  with_chain ~seed:"net-smoke" (fun ports ->
      match
        Network.of_config_tcp
          Network.Config.(tcp_config |> with_round_deadline_ms 30_000.)
          ~addr:(Addr.loopback ~port:ports.(0))
      with
      | Error e -> check ("of_config_tcp: " ^ e) false
      | Ok net ->
          check "is_remote" (Network.is_remote net);
          let a = Network.connect ~seed:"net-a" net in
          let b = Network.connect ~seed:"net-b" net in
          let c = Network.connect ~seed:"net-c" net in
          let d = Network.connect ~seed:"net-d" net in
          Client.start_conversation a ~peer_pk:(Client.public_key b);
          Client.start_conversation b ~peer_pk:(Client.public_key a);
          Client.start_conversation c ~peer_pk:(Client.public_key d);
          Client.start_conversation d ~peer_pk:(Client.public_key c);
          Client.send a "hello over real tcp";
          Client.send c "second pair, second link";
          let reports = Network.run_rounds net 3 in
          check "3 conversation rounds completed"
            (List.for_all (fun r -> r.Network.failure = None) reports);
          check "single attempt each"
            (List.for_all (fun r -> r.Network.attempts = 1) reports);
          let delivered =
            List.concat_map
              (fun (_, evs) ->
                List.filter_map
                  (function
                    | Client.Delivered { text; _ } -> Some text | _ -> None)
                  evs)
              (Network.events_of reports)
          in
          check "both texts delivered"
            (List.mem "hello over real tcp" delivered
            && List.mem "second pair, second link" delivered);
          let dial = Network.run ~kind:Round.Dialing net in
          check "dialing round completed" (dial.Network.failure = None);
          check "all 4 acks confirmed" (dial.Network.confirmed_acks = 4);
          Network.shutdown net)

(* The reverse of [spawn_chain]'s order: servers 0, 1 and 2, 50 ms
   apart, so each daemon dials a successor that does not listen yet and
   keeps redialing it until it does.  The chain must still assemble and
   deliver. *)
let test_upstream_first () =
  print_endline "daemons spawned upstream first (0, 1, 2, 50 ms apart):";
  let seed = "net-upstream-first" in
  let ports = Daemon_spawn.free_ports chain_len in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter Daemon_spawn.stop_pid !pids)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      for index = 0 to chain_len - 1 do
        if index > 0 then Unix.sleepf 0.05;
        pids := fork_daemon (daemon_cfg ~seed ~ports ~index ()) :: !pids
      done;
      let t_last = Unix.gettimeofday () in
      match
        Network.of_config_tcp
          Network.Config.(tcp_config |> with_round_deadline_ms 10_000.)
          ~addr:(Addr.loopback ~port:ports.(0))
      with
      | Error e -> check ("of_config_tcp: " ^ e) false
      | Ok net ->
          let now = Unix.gettimeofday () in
          Printf.printf
            "  chain assembled %.1f ms after the first spawn, %.1f ms after \
             the last\n%!"
            (1000. *. (now -. t0))
            (1000. *. (now -. t_last));
          let a = Network.connect ~seed:"upstream-a" net in
          let b = Network.connect ~seed:"upstream-b" net in
          Client.start_conversation a ~peer_pk:(Client.public_key b);
          Client.start_conversation b ~peer_pk:(Client.public_key a);
          Client.send a "assembled from the top";
          let reports = Network.run_rounds net 2 in
          check "rounds completed in one attempt each"
            (List.for_all
               (fun r -> r.Network.failure = None && r.Network.attempts = 1)
               reports);
          check "delivered"
            (List.exists
               (fun (_, evs) ->
                 List.exists
                   (function
                     | Client.Delivered { text; _ } ->
                         text = "assembled from the top"
                     | _ -> false)
                   evs)
               (Network.events_of reports));
          Network.shutdown net)

(* ------------------------------------------------------------------ *)
(* 3. Socket-level crash fault: supervisor retries within max_retries  *)
(* ------------------------------------------------------------------ *)

let test_crash_retry () =
  print_endline "crash fault at middle server, supervisor retry:";
  let plan = [ { Fault.round = 1; server = 1; kind = Fault.Crash } ] in
  with_chain ~seed:"net-fault" ~fault_plan_for:(1, plan) (fun ports ->
      match
        Network.of_config_tcp
          Network.Config.(
            tcp_config |> with_round_deadline_ms 10_000. |> with_max_retries 3)
          ~addr:(Addr.loopback ~port:ports.(0))
      with
      | Error e -> check ("of_config_tcp: " ^ e) false
      | Ok net ->
          let a = Network.connect ~seed:"fault-a" net in
          let b = Network.connect ~seed:"fault-b" net in
          Client.start_conversation a ~peer_pk:(Client.public_key b);
          Client.start_conversation b ~peer_pk:(Client.public_key a);
          Client.send a "survives the crash";
          let r = Network.run ~kind:Round.Conversation net in
          check "round recovered" (r.Network.failure = None);
          check "took a retry" (r.Network.attempts = 2);
          check "abort recorded" (List.length r.Network.aborts = 1);
          let r2 = Network.run ~kind:Round.Conversation net in
          check "delivery after recovery"
            (List.exists
               (fun (_, evs) ->
                 List.exists
                   (function
                     | Client.Delivered { text; _ } ->
                         text = "survives the crash"
                     | _ -> false)
                   evs)
               (r.Network.events @ r2.Network.events));
          Network.shutdown net)

(* ------------------------------------------------------------------ *)
(* 4. SIGKILL + restart of the middle server                           *)
(* ------------------------------------------------------------------ *)

let test_kill_restart () =
  print_endline "kill -9 the middle server, restart it, keep running:";
  let seed = "net-restart" in
  let ports = Daemon_spawn.free_ports chain_len in
  let pids = ref (spawn_chain ~seed ports) in
  Fun.protect
    ~finally:(fun () -> List.iter Daemon_spawn.stop_pid !pids)
    (fun () ->
      match
        Network.of_config_tcp
          Network.Config.(
            tcp_config |> with_round_deadline_ms 15_000. |> with_max_retries 4)
          ~addr:(Addr.loopback ~port:ports.(0))
      with
      | Error e -> check ("of_config_tcp: " ^ e) false
      | Ok net ->
          let a = Network.connect ~seed:"restart-a" net in
          let b = Network.connect ~seed:"restart-b" net in
          Client.start_conversation a ~peer_pk:(Client.public_key b);
          Client.start_conversation b ~peer_pk:(Client.public_key a);
          let r1 = Network.run ~kind:Round.Conversation net in
          check "round before the kill" (r1.Network.failure = None);
          (* SIGKILL the middle server: no goodbye, no flush. *)
          let victim = List.nth !pids 1 in
          Unix.kill victim Sys.sigkill;
          ignore (Unix.waitpid [] victim);
          pids := List.filteri (fun i _ -> i <> 1) !pids;
          (* Restart it from the same seed; it re-derives its keys and
             rejoins via the handshake cascade. *)
          pids := fork_daemon (daemon_cfg ~seed ~ports ~index:1 ()) :: !pids;
          Client.send a "through the restart";
          let r2 = Network.run ~kind:Round.Conversation net in
          check "round after restart recovered" (r2.Network.failure = None);
          let r3 = Network.run ~kind:Round.Conversation net in
          check "delivery after restart"
            (List.exists
               (fun (_, evs) ->
                 List.exists
                   (function
                     | Client.Delivered { text; _ } ->
                         text = "through the restart"
                     | _ -> false)
                   evs)
               (r2.Network.events @ r3.Network.events));
          Network.shutdown net)

(* ------------------------------------------------------------------ *)
(* 5. Link loss: one grace rule at both link ends                      *)
(* ------------------------------------------------------------------ *)

(* A flap (the socket resets, the reply survives in the peer's outbox)
   and a partition (the batch is lost with the socket) on the
   coordinator's link ([@1:0]) and on the middle link ([@1:1]), with
   500 ms graces at every link end and an 8 s deadline.  A flap costs
   latency, not an attempt: the peer's outbox re-delivers the reply over
   the healed link.  A partition costs the grace and one retry, at
   either end: the dialing end answers the lost round when the grace
   ends, instead of waiting for the deadline.  Either way the message
   gets through. *)
let test_link_loss () =
  print_endline "link-loss matrix (500 ms graces, 8 s deadline):";
  List.iter
    (fun plan_s ->
      let plan = Result.get_ok (Fault.parse plan_s) in
      let site = (List.hd plan).Fault.server in
      let partition =
        match (List.hd plan).Fault.kind with
        | Fault.Partition _ -> true
        | _ -> false
      in
      with_chain ~flap_grace_ms:500. ~seed:"net-link-loss"
        ~fault_plan_for:(site, plan) (fun ports ->
          match
            Network.of_config_tcp
              Network.Config.(
                tcp_config |> with_round_deadline_ms 8_000.
                |> with_max_retries 2 |> with_flap_grace_ms 500.)
              ~addr:(Addr.loopback ~port:ports.(0))
          with
          | Error e -> check ("of_config_tcp: " ^ e) false
          | Ok net ->
              let a = Network.connect ~seed:"loss-a" net in
              let b = Network.connect ~seed:"loss-b" net in
              Client.start_conversation a ~peer_pk:(Client.public_key b);
              Client.start_conversation b ~peer_pk:(Client.public_key a);
              Client.send a "across a lost link";
              let t0 = Unix.gettimeofday () in
              let r = Network.run ~kind:Round.Conversation net in
              let ms = 1000. *. (Unix.gettimeofday () -. t0) in
              let attempts = if partition then 2 else 1 in
              check
                (Printf.sprintf "%s: completed in %d attempt(s), %.0f ms%s"
                   plan_s r.Network.attempts ms
                   (if partition then " (< 3000)" else ""))
                (r.Network.failure = None
                && r.Network.attempts = attempts
                && List.length r.Network.aborts = attempts - 1
                && ((not partition) || ms < 3_000.));
              let r2 = Network.run ~kind:Round.Conversation net in
              check (plan_s ^ ": delivered")
                (List.exists
                   (fun (_, evs) ->
                     List.exists
                       (function
                         | Client.Delivered { text; _ } ->
                             text = "across a lost link"
                         | _ -> false)
                       evs)
                   (r.Network.events @ r2.Network.events));
              Network.shutdown net))
    [ "flap(0)@1:0"; "flap(0)@1:1"; "partition(50)@1:0"; "partition(50)@1:1" ]

(* ------------------------------------------------------------------ *)
(* 6. Emulated WAN links: shaping delays frames, never changes them    *)
(* ------------------------------------------------------------------ *)

let test_shaped_links () =
  print_endline "emulated 10 ms links on every hop (digest must not move):";
  let link = Vuvuzela_transport.Shaper.config ~latency_ms:10. () in
  let ports = Daemon_spawn.free_ports chain_len in
  let pids =
    Array.to_list
      (Array.init chain_len (fun i ->
           let index = chain_len - 1 - i in
           fork_daemon
             (daemon_cfg ~seed:Transcript_pin.seed ~ports ~index ~link ())))
  in
  Fun.protect
    ~finally:(fun () -> List.iter Daemon_spawn.stop_pid pids)
    (fun () ->
      match
        Remote.connect ~handshake_timeout_ms:20_000.
          ~link:(Vuvuzela_transport.Shaper.with_seed "net-shaped-coord" link)
          ~addr:(Addr.loopback ~port:ports.(0))
          ()
      with
      | Error e -> check ("remote connect: " ^ e) false
      | Ok remote ->
          Remote.set_deadline_ms remote (Some 30_000.);
          let t0 = Unix.gettimeofday () in
          let backend = Transcript_pin.of_remote remote in
          let digest = Transcript_pin.full_digest backend in
          let elapsed_ms = 1000. *. (Unix.gettimeofday () -. t0) in
          check_str "shaped-link digest = pinned digest"
            Transcript_pin.pinned_full_digest digest;
          (* 4 rounds, each crossing 3 shaped forward links at ≥ 10 ms
             per frame: emulated latency must actually have passed. *)
          check "emulated latency actually applied" (elapsed_ms > 80.);
          Remote.shutdown remote)

(* ------------------------------------------------------------------ *)
(* 7. Observability plane: scrape endpoints, merged trace, digest      *)
(* ------------------------------------------------------------------ *)

module T = Vuvuzela_telemetry
module Httpd = Vuvuzela_transport.Httpd

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* The value of one series ([name{labels}]) in a Prometheus exposition. *)
let series_value body series =
  List.find_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = series ->
          float_of_string_opt
            (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> None)
    (String.split_on_char '\n' body)

(* A merged trace's spans as (id, parent, process, name), and the
   (process, name) of the root a span id reaches through parent links. *)
let merged_spans merged =
  let spans =
    String.split_on_char '\n' merged
    |> List.filter (fun l -> String.trim l <> "")
    |> List.filter_map (fun l ->
           match T.Json.parse l with
           | Error _ -> None
           | Ok j ->
               let get f k = Option.bind (T.Json.member k j) f in
               Some
                 ( Option.value ~default:(-1) (get T.Json.to_int "id"),
                   get T.Json.to_int "parent",
                   Option.value ~default:"?" (get T.Json.to_str "process"),
                   Option.value ~default:"?" (get T.Json.to_str "name") ))
  in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (id, parent, process, name) ->
      Hashtbl.replace tbl id (parent, process, name))
    spans;
  let rec root_of id =
    match Hashtbl.find_opt tbl id with
    | None -> None
    | Some (None, process, name) -> Some (process, name)
    | Some (Some p, _, _) -> root_of p
  in
  (spans, root_of)

let spawn_obs_chain ?(jobs = 1) ?fault_plan_for ~seed ~ports ~mports () =
  Array.to_list
    (Array.init chain_len (fun i ->
         let index = chain_len - 1 - i in
         let fault_plan =
           match fault_plan_for with
           | Some (j, plan) when j = index -> Some plan
           | _ -> None
         in
         fork_daemon
           (daemon_cfg ~seed ~ports ~index ~pipeline_chunk:4 ~jobs ?fault_plan
              ~metrics_port:mports.(index) ())))

(* A full [--obs-dir] deployment: daemons expose scrape endpoints, the
   coordinator traces its rounds, and shutdown collects everything.
   Checks the live /metrics + /healthz answers (the middle daemon has a
   1 ms slow-link fault in round 1, which its registry must count), then
   the merged trace's cross-process parent links, then the rendered
   digest. *)
let test_observability () =
  print_endline "observability plane (scrape endpoints + merged trace + digest):";
  let all = Daemon_spawn.free_ports (2 * chain_len) in
  let ports = Array.sub all 0 chain_len in
  let mports = Array.sub all chain_len chain_len in
  let slow = [ { Fault.round = 1; server = 1; kind = Fault.Slow_link 1 } ] in
  let pids =
    spawn_obs_chain ~fault_plan_for:(1, slow) ~seed:"net-obs" ~ports ~mports ()
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vuvuzela-obs-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> List.iter Daemon_spawn.stop_pid pids)
    (fun () ->
      let telemetry = T.Telemetry.create () in
      match
        Network.of_config_tcp
          Network.Config.(
            tcp_config |> with_round_deadline_ms 30_000.
            |> with_pipeline ~chunk:4 true
            |> with_telemetry telemetry |> with_obs_dir dir
            |> with_obs_scrape
                 (Array.to_list
                    (Array.mapi
                       (fun i port -> (i, Addr.loopback ~port))
                       mports)))
          ~addr:(Addr.loopback ~port:ports.(0))
      with
      | Error e -> check ("of_config_tcp: " ^ e) false
      | Ok net ->
          let a = Network.connect ~seed:"obs-a" net in
          let b = Network.connect ~seed:"obs-b" net in
          Client.start_conversation a ~peer_pk:(Client.public_key b);
          Client.start_conversation b ~peer_pk:(Client.public_key a);
          Client.send a "observed round";
          let reports = Network.run_rounds net 2 in
          check "2 rounds completed"
            (List.for_all (fun r -> r.Network.failure = None) reports);
          (* Live scrape of the middle daemon while the chain is up. *)
          let maddr = Addr.loopback ~port:mports.(1) in
          (match Httpd.get maddr "/metrics" with
          | Ok (200, body) ->
              check "/metrics serves the stage histogram family"
                (contains body "vuvuzela_stage_ms_bucket");
              check "/metrics serves the hop counter"
                (contains body "vuvuzela_daemon_hops_total");
              check "/metrics serves net gauges"
                (contains body "vuvuzela_net_frames_in");
              check "/metrics counts the fired fault"
                (contains body
                   "vuvuzela_faults_injected_total{kind=\"slow-link\"}");
              let x25519 kind =
                series_value body
                  (Printf.sprintf "vuvuzela_x25519_ops_total{kind=\"%s\"}" kind)
              in
              check "/metrics serves X25519 operations by kind"
                (List.for_all
                   (fun k -> x25519 k <> None)
                   [ "ladder"; "base"; "keyed" ]);
              check "/metrics counts the middle server's peels on the ladder"
                (match x25519 "ladder" with Some n -> n > 0. | None -> false)
          | Ok (status, _) ->
              check (Printf.sprintf "/metrics answered %d" status) false
          | Error e -> check ("/metrics: " ^ e) false);
          (match Httpd.get maddr "/healthz" with
          | Ok (200, body) -> (
              match T.Json.parse body with
              | Error e -> check ("/healthz parses: " ^ e) false
              | Ok json ->
                  let str k = Option.bind (T.Json.member k json) T.Json.to_str in
                  let int k = Option.bind (T.Json.member k json) T.Json.to_int in
                  let flag k =
                    Option.bind (T.Json.member k json) T.Json.to_bool
                  in
                  check "/healthz status ok" (str "status" = Some "ok");
                  check "/healthz chain position"
                    (int "index" = Some 1 && int "chain_len" = Some chain_len);
                  check "/healthz round progressed"
                    (match int "round" with Some r -> r >= 2 | None -> false);
                  check "/healthz hops counted"
                    (match int "hops_done" with Some h -> h >= 2 | None -> false);
                  check "/healthz peers connected"
                    (flag "upstream_connected" = Some true
                    && flag "downstream_connected" = Some true))
          | Ok (status, _) ->
              check (Printf.sprintf "/healthz answered %d" status) false
          | Error e -> check ("/healthz: " ^ e) false);
          (match Httpd.get maddr "/nope" with
          | Ok (404, _) -> check "unknown path answers 404" true
          | Ok (status, _) ->
              check (Printf.sprintf "unknown path answered %d" status) false
          | Error e -> check ("unknown path: " ^ e) false);
          (* Shutdown scrapes the daemons, merges the traces and renders
             the digest — all before the Bye cascade. *)
          Network.shutdown net;
          let merged_path = Filename.concat dir "merged-trace.jsonl" in
          check "merged trace written" (Sys.file_exists merged_path);
          if Sys.file_exists merged_path then begin
            let merged = read_file merged_path in
            check "merged trace passes the schema checker"
              (T.Trace.validate_jsonl merged = Ok ());
            (* Every daemon hop/stage span must reach a coordinator
               round root through parent links alone. *)
            let spans, root_of = merged_spans merged in
            let daemon_work =
              List.filter
                (fun (_, _, process, name) ->
                  process <> "coordinator"
                  && (name = "hop" || List.mem name T.Telemetry.server_stages))
                spans
            in
            check "daemon hop/stage spans present in the merge"
              (List.length daemon_work > 0
              && List.exists (fun (_, _, p, n) -> p = "server-2" && n = "hop")
                   daemon_work);
            check "every daemon span roots at the coordinator"
              (List.for_all
                 (fun (id, _, _, _) ->
                   match root_of id with
                   | Some ("coordinator", ("conv-round" | "dial-round")) -> true
                   | _ -> false)
                 daemon_work)
          end;
          check "daemon metrics scraped"
            (Sys.file_exists (Filename.concat dir "daemon-1-metrics.prom"));
          check "daemon healthz scraped"
            (Sys.file_exists (Filename.concat dir "daemon-1-healthz.json"));
          check "round events logged"
            (contains
               (read_file (Filename.concat dir "events.jsonl"))
               "\"event\":\"round\"");
          let digest_path = Filename.concat dir "digest.txt" in
          check "digest rendered" (Sys.file_exists digest_path);
          if Sys.file_exists digest_path then begin
            let digest = read_file digest_path in
            check "digest counts the rounds" (contains digest "conv round 1");
            check "digest draws the waterfall" (contains digest "hop")
          end;
          match Obs.render_digest ~dir with
          | Ok _ -> check "inspector re-renders from disk" true
          | Error e -> check ("inspector: " ^ e) false)

(* ------------------------------------------------------------------ *)
(* 7b. Digest parity with observability on, jobs × pipeline            *)
(* ------------------------------------------------------------------ *)

(* The acceptance bar for the whole plane: the pinned transcript, over
   TCP, with every daemon scraping and tracing and the coordinator
   announcing round contexts — bit-identical at jobs 1 and 4 with the
   streamed relay on. *)
let test_obs_transcript_parity () =
  print_endline
    "transcript parity with observability on (jobs 1 and 4, pipelined):";
  List.iter
    (fun jobs ->
      let all = Daemon_spawn.free_ports (2 * chain_len) in
      let ports = Array.sub all 0 chain_len in
      let mports = Array.sub all chain_len chain_len in
      let pids =
        spawn_obs_chain ~jobs ~seed:Transcript_pin.seed ~ports ~mports ()
      in
      Fun.protect
        ~finally:(fun () -> List.iter Daemon_spawn.stop_pid pids)
        (fun () ->
          let tel = T.Telemetry.create () in
          match
            Remote.connect ~telemetry:tel ~handshake_timeout_ms:20_000.
              ~addr:(Addr.loopback ~port:ports.(0))
              ()
          with
          | Error e -> check ("remote connect: " ^ e) false
          | Ok remote ->
              Remote.set_deadline_ms remote (Some 30_000.);
              Remote.set_pipeline remote (Some 4);
              let tr = T.Telemetry.trace tel in
              (* The coordinator side of the tentpole, as [Network]
                 wires it: a root span per round, its context announced
                 ahead of the batch. *)
              let traced name ~round ~dialing f =
                let span = T.Trace.begin_span tr ~name ~round ~dialing () in
                Remote.set_trace_ctx remote
                  (Some (T.Trace.context_of tr span));
                Fun.protect
                  ~finally:(fun () ->
                    Remote.set_trace_ctx remote None;
                    T.Trace.end_span tr span)
                  f
              in
              let backend =
                let b = Transcript_pin.of_remote remote in
                {
                  b with
                  conversation_round =
                    (fun ~round requests ->
                      traced "conv-round" ~round ~dialing:false (fun () ->
                          b.conversation_round ~round requests));
                  dialing_round =
                    (fun ~round ~m requests ->
                      traced "dial-round" ~round ~dialing:true (fun () ->
                          b.dialing_round ~round ~m requests));
                }
              in
              let digest = Transcript_pin.full_digest backend in
              check_str
                (Printf.sprintf "obs-on digest = pinned digest (jobs=%d)" jobs)
                Transcript_pin.pinned_full_digest digest;
              check
                (Printf.sprintf "coordinator recorded round roots (jobs=%d)"
                   jobs)
                (T.Trace.span_count tr >= 4);
              Remote.shutdown remote))
    [ 1; 4 ]


(* ------------------------------------------------------------------ *)
(* 7c. A trace context crosses an untraced middle daemon               *)
(* ------------------------------------------------------------------ *)

(* Only daemons 0 and 2 have scrape endpoints, hence a trace; the middle
   one has no sink.  It must pass each round's context on unchanged, or
   server 2's hop spans land in the merged trace as roots of their own. *)
let test_untraced_middle () =
  print_endline "trace context across an untraced middle daemon:";
  let all = Daemon_spawn.free_ports (2 * chain_len) in
  let ports = Array.sub all 0 chain_len in
  let mports = Array.sub all chain_len chain_len in
  let traced = [ 0; 2 ] in
  let pids =
    List.map
      (fun index ->
        fork_daemon
          (daemon_cfg ~seed:"net-untraced" ~ports ~index ~pipeline_chunk:4
             ?metrics_port:
               (if List.mem index traced then Some mports.(index) else None)
             ()))
      [ 2; 1; 0 ]
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vuvuzela-untraced-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> List.iter Daemon_spawn.stop_pid pids)
    (fun () ->
      match
        Network.of_config_tcp
          Network.Config.(
            tcp_config |> with_round_deadline_ms 30_000.
            |> with_pipeline ~chunk:4 true
            |> with_telemetry (T.Telemetry.create ())
            |> with_obs_dir dir
            |> with_obs_scrape
                 (List.map
                    (fun i -> (i, Addr.loopback ~port:mports.(i)))
                    traced))
          ~addr:(Addr.loopback ~port:ports.(0))
      with
      | Error e -> check ("of_config_tcp: " ^ e) false
      | Ok net ->
          let a = Network.connect ~seed:"untraced-a" net in
          let b = Network.connect ~seed:"untraced-b" net in
          Client.start_conversation a ~peer_pk:(Client.public_key b);
          Client.start_conversation b ~peer_pk:(Client.public_key a);
          let reports = Network.run_rounds net 2 in
          check "2 rounds completed"
            (List.for_all (fun r -> r.Network.failure = None) reports);
          Network.shutdown net;
          let merged_path = Filename.concat dir "merged-trace.jsonl" in
          check "merged trace written" (Sys.file_exists merged_path);
          if Sys.file_exists merged_path then begin
            let spans, root_of = merged_spans (read_file merged_path) in
            let hops =
              List.filter
                (fun (_, _, process, name) ->
                  process = "server-2" && name = "hop")
                spans
            in
            check "server 2 traced a hop span per round"
              (List.length hops = 2);
            check "every server-2 hop span has a parent"
              (List.for_all (fun (_, parent, _, _) -> parent <> None) hops);
            check "every server-2 hop span roots at a coordinator conv-round"
              (List.for_all
                 (fun (id, _, _, _) ->
                   root_of id = Some ("coordinator", "conv-round"))
                 hops)
          end)

(* ------------------------------------------------------------------ *)
(* 8. Cross-tier fault parity: both tiers drive the same hop           *)
(* ------------------------------------------------------------------ *)

let parity_config =
  Config.(
    default |> with_seed "net-parity" |> with_n_servers chain_len
    |> with_noise Transcript_pin.noise
    |> with_dial_noise Transcript_pin.dial_noise
    |> with_noise_mode Noise.Deterministic |> with_pipeline ~chunk:2 true
    |> with_round_deadline_ms 30_000. |> with_max_retries 2
    |> with_handshake_timeout_ms 20_000.)

(* 8 clients in 4 pairs, one message per pair, 2 conversation rounds:
   the attempts, the aborts (stage and server) and the deliveries. *)
let parity_run net =
  let clients =
    Array.init 8 (fun i ->
        Network.connect ~seed:(Printf.sprintf "parity-%d" i) net)
  in
  for p = 0 to 3 do
    let a = clients.(2 * p) and b = clients.((2 * p) + 1) in
    Client.start_conversation a ~peer_pk:(Client.public_key b);
    Client.start_conversation b ~peer_pk:(Client.public_key a);
    Client.send a (Printf.sprintf "pair %d" p)
  done;
  let reports = Network.run_rounds net 2 in
  Network.shutdown net;
  let delivered =
    List.concat_map
      (fun (_, evs) ->
        List.filter (function Client.Delivered _ -> true | _ -> false) evs)
      (Network.events_of reports)
  in
  Printf.sprintf "attempts=[%s] aborts=[%s] delivered=%d"
    (String.concat ";"
       (List.map (fun r -> string_of_int r.Network.attempts) reports))
    (String.concat ";"
       (List.concat_map
          (fun r ->
            List.map
              (fun st -> Printf.sprintf "%s@%d" st.Rpc.stage st.Rpc.server)
              r.Network.aborts)
          reports))
    (List.length delivered)

let test_fault_parity () =
  print_endline "cross-tier fault parity (8 clients, parts of 2):";
  let clean = parity_run (Network.of_config parity_config) in
  List.iter
    (fun (name, plan_s, flap_grace_ms, bites) ->
      let plan = Result.get_ok (Fault.parse plan_s) in
      let name = Printf.sprintf "(%s) %s" name (String.sub plan_s 0 (min 16 (String.length plan_s))) in
      let config =
        Option.fold ~none:parity_config
          ~some:(fun g -> Config.with_flap_grace_ms g parity_config)
          flap_grace_ms
      in
      let local =
        try parity_run (Network.of_config (Config.with_fault_plan plan config))
        with e -> "raised " ^ Printexc.to_string e
      in
      let site = (List.hd plan).Fault.server in
      let tcp =
        with_chain ~pipeline_chunk:2 ~seed:"net-parity" ?flap_grace_ms
          ~fault_plan_for:(site, plan) (fun ports ->
            match
              Network.of_config_tcp config
                ~addr:(Addr.loopback ~port:ports.(0))
            with
            | Error e -> "of_config_tcp: " ^ e
            | Ok net -> (
                try parity_run net with e -> "raised " ^ Printexc.to_string e))
      in
      if bites then check (Printf.sprintf "%s bites: %s" name local) (local <> clean)
      else check_str (name ^ " costs nothing") clean local;
      check_str (name ^ ": daemons = in process") local tcp)
    [
      ("a", "corrupt(18)@1:1", None, true);
      ("b", "corrupt(18)@1:0", None, true);
      ( "c",
        "pad(0)@1:1;"
        ^ String.concat ";"
            (List.init 12 (fun i -> Printf.sprintf "tamper(%d)@1:1" i)),
        None,
        true );
      ("d", "corrupt(5)@1:1", None, true);
      (* Resets, under a 500 ms grace: the link above answers a lost
         batch when its grace ends, and a flap's reply waits in the
         outbox until the redial. *)
      ("e", "crash@1:1", Some 500., true);
      ("f", "flap(0)@1:1", Some 500., false);
      ("g", "partition(50)@1:1", Some 500., true);
    ]

(* ------------------------------------------------------------------ *)
(* 9. Hostile first hops: no crash, no deadline stretched              *)
(* ------------------------------------------------------------------ *)

module Transport = Vuvuzela_transport.Transport
module Conn = Vuvuzela_transport.Conn

(* A fake first hop: it answers the handshake like a 3-server chain,
   then hands every frame, the [Hello] included, to [answer] with the
   loop and a way to reply. *)
let fork_fake_hop port answer =
  match Unix.fork () with
  | 0 ->
      let tp = Transport.create () in
      let pks =
        List.init chain_len (fun i ->
            (Types.identity_of_seed
               (Bytes.of_string (Printf.sprintf "hostile-%d" i)))
              .Types.public)
      in
      let stop = ref false in
      let on_frame conn raw =
        let reply msg = Conn.send conn (Rpc.encode msg) in
        match Rpc.decode raw with
        | Ok Rpc.Bye -> stop := true
        | Ok msg ->
            (match msg with
            | Rpc.Hello _ -> reply (Rpc.Chain_info { pks })
            | _ -> ());
            answer (Transport.loop tp) reply msg
        | Error _ -> ()
      in
      (match
         Transport.listen tp (Addr.loopback ~port)
           ~on_accept:(fun _ _ -> ())
           ~on_frame
           ~on_drop:(fun _ -> stop := true)
           ()
       with
      | Ok _ ->
          while not !stop do
            Transport.run_once ~max_wait_ms:50. tp
          done
      | Error _ -> ());
      Unix._exit 0
  | pid -> pid

(* Answers every closing part with an empty results batch. *)
let fork_hostile_hop port =
  fork_fake_hop port (fun _ reply -> function
    | Rpc.Conv_batch_part { round; last = true; _ } ->
        reply (Rpc.Conv_results { round; replies = [||] })
    | _ -> ())

let test_hostile_first_hop () =
  print_endline "hostile first hop answering empty results:";
  let port = (Daemon_spawn.free_ports 1).(0) in
  let pid = fork_hostile_hop port in
  Fun.protect
    ~finally:(fun () -> Daemon_spawn.stop_pid pid)
    (fun () ->
      match
        Network.of_config_tcp
          Config.(
            tcp_config |> with_round_deadline_ms 10_000. |> with_max_retries 2)
          ~addr:(Addr.loopback ~port)
      with
      | Error e -> check ("of_config_tcp: " ^ e) false
      | Ok net ->
          let a = Network.connect ~seed:"hostile-a" net in
          let b = Network.connect ~seed:"hostile-b" net in
          Client.start_conversation a ~peer_pk:(Client.public_key b);
          Client.start_conversation b ~peer_pk:(Client.public_key a);
          (match Network.run ~kind:Round.Conversation net with
          | r ->
              check "the round failed" (r.Network.failure <> None);
              check "after 1 + max_retries attempts" (r.Network.attempts = 3);
              check "a typed results status from server 0"
                (List.for_all
                   (fun st -> st.Rpc.stage = "conv-results" && st.Rpc.server = 0)
                   r.Network.aborts
                && List.length r.Network.aborts = 3)
          | exception e ->
              check ("Network.run raised " ^ Printexc.to_string e) false);
          Network.shutdown net)

(* Answers no round, but after the handshake sends a stale [Status]
   every 100 ms for 3 s. *)
let fork_dribbling_hop port =
  fork_fake_hop port (fun loop reply -> function
    | Rpc.Hello _ ->
        let stale =
          Rpc.Status
            { Rpc.round = 0; server = 0; stage = "conv-batch"; detail = "stale" }
        in
        for i = 1 to 30 do
          ignore
            (Vuvuzela_transport.Evloop.after loop ~ms:(100. *. float_of_int i)
               (fun () -> reply stale))
        done
    | _ -> ())

(* The deadline bounds the whole wait for a round's reply: frames that
   are not the reply do not restart it. *)
let test_dribbling_first_hop () =
  print_endline "first hop dribbling stale statuses (500 ms deadline):";
  let port = (Daemon_spawn.free_ports 1).(0) in
  let pid = fork_dribbling_hop port in
  Fun.protect
    ~finally:(fun () -> Daemon_spawn.stop_pid pid)
    (fun () ->
      match
        Network.of_config_tcp
          Config.(
            tcp_config |> with_round_deadline_ms 500. |> with_max_retries 0)
          ~addr:(Addr.loopback ~port)
      with
      | Error e -> check ("of_config_tcp: " ^ e) false
      | Ok net ->
          let a = Network.connect ~seed:"dribble-a" net in
          let b = Network.connect ~seed:"dribble-b" net in
          Client.start_conversation a ~peer_pk:(Client.public_key b);
          Client.start_conversation b ~peer_pk:(Client.public_key a);
          let t0 = Unix.gettimeofday () in
          let r = Network.run ~kind:Round.Conversation net in
          let ms = 1000. *. (Unix.gettimeofday () -. t0) in
          (match r.Network.failure with
          | Some st ->
              check_str "the round ends at its deadline" "deadline"
                st.Rpc.stage;
              check_str "the status names the deadline"
                "exceeded 500 ms round deadline" st.Rpc.detail;
              check "the deadline status is retryable" (Rpc.retryable st)
          | None -> check "the round failed" false);
          check (Printf.sprintf "within 1.5 s (%.0f ms)" ms) (ms < 1_500.);
          Network.shutdown net)

(* ------------------------------------------------------------------ *)
(* 10. Restart from another seed: the server's key changes             *)
(* ------------------------------------------------------------------ *)

(* A server restarted from another seed comes back with another key.
   Onions wrapped to the old one (the coordinator's clients', and the
   upstream servers' noise) cannot be peeled there, so the tier that
   reads the new key in its re-handshake — the upstream daemon for the
   middle server, the coordinator for the first — must answer the next
   round with the non-retryable key-change status instead of running
   it.  For the middle server the round waits until daemon 0's /metrics
   has counted the change: a round whose parts left before daemon 0
   noticed the dead link would be lost with it and only end at the
   deadline. *)
let test_key_change ~victim () =
  Printf.printf "restart server %d from another seed (new key):\n%!" victim;
  let seed = "net-rekey" in
  let all = Daemon_spawn.free_ports (chain_len + 1) in
  let ports = Array.sub all 0 chain_len in
  let mport = all.(chain_len) in
  let spawn ~seed index =
    fork_daemon
      (daemon_cfg ~seed ~ports ~index
         ?metrics_port:(if index = 0 then Some mport else None)
         ())
  in
  (* Last server first; [pids] keeps that order. *)
  let pids = ref (List.init chain_len (fun i -> spawn ~seed (chain_len - 1 - i))) in
  Fun.protect
    ~finally:(fun () -> List.iter Daemon_spawn.stop_pid !pids)
    (fun () ->
      match
        Network.of_config_tcp
          Network.Config.(
            tcp_config |> with_round_deadline_ms 15_000. |> with_max_retries 4)
          ~addr:(Addr.loopback ~port:ports.(0))
      with
      | Error e -> check ("of_config_tcp: " ^ e) false
      | Ok net ->
          let a = Network.connect ~seed:"rekey-a" net in
          let b = Network.connect ~seed:"rekey-b" net in
          Client.start_conversation a ~peer_pk:(Client.public_key b);
          Client.start_conversation b ~peer_pk:(Client.public_key a);
          let r1 = Network.run ~kind:Round.Conversation net in
          check "round before the restart" (r1.Network.failure = None);
          let slot = chain_len - 1 - victim in
          let pid = List.nth !pids slot in
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          pids :=
            List.mapi
              (fun i p -> if i = slot then spawn ~seed:"net-rekey-other" victim else p)
              !pids;
          if victim > 0 then begin
            let counted () =
              match Httpd.get (Addr.loopback ~port:mport) "/metrics" with
              | Ok (200, body) ->
                  contains body "vuvuzela_daemon_key_changes_total 1"
              | _ -> false
            in
            let rec wait n =
              counted () || (n > 0 && (Unix.sleepf 0.05; wait (n - 1)))
            in
            check "daemon 0 counted the key change" (wait 200)
          end;
          Client.send a "wrapped to the old key";
          let r2 = Network.run ~kind:Round.Conversation net in
          (match r2.Network.failure with
          | Some st ->
              check "round answered with the key-change status"
                (Rpc.is_key_change st);
              check "key change is not retryable" (not (Rpc.retryable st));
              check "status names the restarted server"
                (st.Rpc.detail
                = Printf.sprintf "server %d's public key changed on reconnect"
                    victim)
          | None -> check "round refused after the key change" false);
          Network.shutdown net)

(* ------------------------------------------------------------------ *)
(* 11. /healthz reports the downstream link's state                    *)
(* ------------------------------------------------------------------ *)

(* The middle daemon alone, its successor not listening yet: /healthz
   says the downstream link is down, and says it is up once the
   successor starts and the link's handshake completes. *)
let test_healthz_downstream () =
  print_endline "healthz downstream link (successor down, then up):";
  let all = Daemon_spawn.free_ports (chain_len + 1) in
  let ports = Array.sub all 0 chain_len in
  let mport = all.(chain_len) in
  let spawn index =
    fork_daemon
      (daemon_cfg ~seed:"net-healthz" ~ports ~index
         ?metrics_port:(if index = 1 then Some mport else None)
         ())
  in
  let pids = ref [ spawn 1 ] in
  Fun.protect
    ~finally:(fun () -> List.iter Daemon_spawn.stop_pid !pids)
    (fun () ->
      let downstream () =
        match Httpd.get (Addr.loopback ~port:mport) "/healthz" with
        | Ok (200, body) -> (
            match T.Json.parse body with
            | Ok json ->
                Option.bind
                  (T.Json.member "downstream_connected" json)
                  T.Json.to_bool
            | Error _ -> None)
        | _ -> None
      in
      let rec wait want n =
        downstream () = Some want
        || (n > 0 && (Unix.sleepf 0.05; wait want (n - 1)))
      in
      check "successor down: downstream_connected false" (wait false 100);
      pids := spawn 2 :: !pids;
      check "successor up: downstream_connected true" (wait true 200))

let () =
  if not (Daemon_spawn.sockets_allowed ()) then begin
    print_endline
      "net: SKIPPED — this sandbox forbids loopback TCP (socket/bind on \
       127.0.0.1 failed), so the multi-process deployment cannot run; \
       re-run outside the sandbox or grant network access to exercise \
       this suite";
    exit 0
  end;
  let only =
    match Sys.argv with [| _; name |] -> Some name | _ -> None
  in
  let run name f = if only = None || only = Some name then f () in
  run "transcript" test_transcript_parity;
  run "pipeline" test_transcript_parity_pipelined;
  run "scale" test_transcript_parity_scale_plane;
  run "smoke" test_network_smoke;
  run "upstream-first" test_upstream_first;
  run "crash" test_crash_retry;
  run "restart" test_kill_restart;
  run "rekey-middle" (test_key_change ~victim:1);
  run "rekey-first" (test_key_change ~victim:0);
  run "link-loss" test_link_loss;
  run "shaped" test_shaped_links;
  run "obs" test_observability;
  run "obs-parity" test_obs_transcript_parity;
  run "untraced-middle" test_untraced_middle;
  run "fault-parity" test_fault_parity;
  run "hostile" test_hostile_first_hop;
  run "dribble" test_dribbling_first_hop;
  run "healthz" test_healthz_downstream;
  if !failures > 0 then begin
    Printf.printf "net: %d failure(s)\n%!" !failures;
    exit 1
  end
  else print_endline "net: all loopback deployment checks passed"
