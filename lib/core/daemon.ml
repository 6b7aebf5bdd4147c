(* One chain server per process; see the interface for the topology and
   the handshake cascade.

   Concurrency shape: everything runs on the transport's event loop in
   one thread.  Each link carries one round at a time (its batch as
   ordered parts down, one results frame up), so the daemon is a state
   machine over four events — upstream frame, downstream frame,
   downstream drop, upstream accept — plus the fault injector. *)

module Transport = Vuvuzela_transport.Transport
module Conn = Vuvuzela_transport.Conn
module Evloop = Vuvuzela_transport.Evloop
module Shaper = Vuvuzela_transport.Shaper
module Httpd = Vuvuzela_transport.Httpd
module Fault = Vuvuzela_faults.Fault
module Telemetry = Vuvuzela_telemetry.Telemetry
module Trace = Vuvuzela_telemetry.Trace
module Metrics = Vuvuzela_telemetry.Metrics
module Json = Vuvuzela_telemetry.Json

type config = {
  listen : Unix.sockaddr;
  next : Unix.sockaddr option;
  index : int;
  chain_len : int;
  seed : string option;
  noise : Vuvuzela_dp.Laplace.params;
  dial_noise : Vuvuzela_dp.Laplace.params;
  noise_mode : Vuvuzela_dp.Noise.mode;
  dial_kind : Dialing.kind;
  jobs : int;
  deaddrop_shards : int;
  pipeline_chunk : int option;
      (** [Some chunk]: forward batches downstream as parts of at most
          [chunk] onions; [None]: one part per batch *)
  fault_plan : Vuvuzela_faults.Fault.plan option;
  link : Shaper.config option;
      (** emulated WAN characteristics of the downstream link *)
  flap_grace_ms : float;
      (** how long a lost downstream link may stay down mid-round before
          the round is abandoned with a [Status] *)
  metrics_listen : Unix.sockaddr option;
      (** mount the scrape endpoints ([/metrics], [/healthz], [/trace])
          on this address; a telemetry sink is created if none is
          supplied *)
  trace_out : string option;
      (** write this daemon's span trace (JSONL) here on shutdown *)
}

(* The ingress state of one round: parts are peeled into the server's
   stream as they arrive; the faults of this (round, server) site fired
   once, at part 0, against the logical whole batch. *)
type part_stream = {
  ps_round : int;
  ps_kind : Round.kind;
  ps_m : int;  (** dial rounds; [0] for conversation *)
  ps_stream : Server.stream;
  mutable ps_seq : int;  (** next expected part sequence number *)
  mutable ps_off : int;  (** onions received so far = absolute slot offset *)
  mutable ps_tampers : int list;
      (** [Tamper_slot] absolute slots not yet applied *)
  mutable ps_poisoned : bool;
      (** a crash/drop fault consumed this round: swallow its remaining
          parts silently — the whole batch is lost *)
}

type st = {
  cfg : config;
  tp : Transport.t;
  log : string -> unit;
  tel : Telemetry.t option;
  started_ms : float;
  faults : Fault.injector option;
  mutable server : Server.t option;
  mutable suffix : bytes list;  (** downstream public keys, chain order *)
  mutable upstream : Conn.t option;
  mutable downstream : Conn.t option;
  mutable hello_pending : bool;
      (** upstream said Hello before our own keys existed *)
  mutable inflight : (int * bool) option;
      (** (round, dialing) forwarded downstream, results still owed *)
  mutable stream : part_stream option;
      (** at most one round assembles at a time (a link carries one
          round at a time; a part for a different round supersedes the
          stale stream) *)
  outbox : bytes Queue.t;
      (** upstream frames owed while the upstream link is down; flushed
          (after the Chain_info reply) when the peer reconnects — a
          round survives an upstream flap instead of silently losing its
          results *)
  mutable ctx : Trace.context option;
      (** trace context announced by the upstream peer for the next
          batch; consumed when the hop span opens *)
  mutable hop : (Trace.span * (float * int)) option;
      (** the open per-round hop span, with the (shaped delay, outage
          count) transport-stats snapshot taken when it opened *)
  mutable last_round : int;
  mutable hops_done : int;
  mutable stop : bool;
}

let is_last st = st.cfg.next = None

(* Bounded so a peer that never returns cannot pin unbounded replies;
   drop-oldest, because the supervisor has certainly abandoned the
   oldest round first. *)
let outbox_cap = 128

let outbox_gauge st =
  Telemetry.set_gauge st.tel "vuvuzela_daemon_outbox_depth"
    (float_of_int (Queue.length st.outbox))

let send_upstream st msg =
  (match st.upstream with
  | Some up when Conn.state up <> Conn.Closed -> Conn.send up (Rpc.encode msg)
  | _ ->
      if Queue.length st.outbox >= outbox_cap then ignore (Queue.pop st.outbox);
      Queue.push (Rpc.encode msg) st.outbox);
  outbox_gauge st

let flush_outbox st =
  (match st.upstream with
  | Some up when Conn.state up <> Conn.Closed ->
      while not (Queue.is_empty st.outbox) do
        Conn.send up (Queue.pop st.outbox)
      done
  | _ -> ());
  outbox_gauge st

let send_downstream st msg =
  match st.downstream with
  | Some down -> Conn.send down (Rpc.encode msg)
  | None -> ()

let status st ~round ~stage detail =
  { Rpc.round; server = st.cfg.index; stage; detail }

(* ------------------------------------------------------------------ *)
(* Hop spans (distributed tracing)                                     *)
(* ------------------------------------------------------------------ *)

(* One span per (round, daemon) covering everything between batch
   arrival and the last frame owed for it; the upstream [Trace_ctx] (if
   any) becomes its remote parent, and the [Server] stage spans nest
   under it via the tracer's open stack.  WAN-emulation waits are
   recorded as annotations, not latency: the shaped delay and flap
   outages accumulated while the hop was open mirror PR 3's
   virtual-delay exclusion rule on the daemon side. *)

let close_hop st =
  match st.hop with
  | None -> ()
  | Some (span, (shaped0, outages0)) ->
      st.hop <- None;
      (match st.tel with
      | None -> ()
      | Some tel ->
          let s = Transport.stats st.tp in
          let shaped = s.Conn.shaped_delay_ms -. shaped0 in
          if shaped > 0. then
            span.Trace.annotations <-
              ("shaper.delay_ms", Printf.sprintf "%.3f" shaped)
              :: span.Trace.annotations;
          if s.Conn.outages > outages0 then begin
            span.Trace.annotations <-
              ("flap.outages", string_of_int (s.Conn.outages - outages0))
              :: span.Trace.annotations;
            span.Trace.annotations <-
              ("flap.wait_ms", Printf.sprintf "%.3f" s.Conn.last_outage_ms)
              :: span.Trace.annotations
          end;
          Trace.end_span (Telemetry.trace tel) span;
          st.hops_done <- st.hops_done + 1;
          Telemetry.add_counter st.tel "vuvuzela_daemon_hops_total";
          Transport.publish st.tp)

let open_hop st ~round ~dialing =
  st.last_round <- round;
  match st.tel with
  | None -> st.ctx <- None
  | Some tel ->
      close_hop st;
      let span =
        Trace.begin_remote_span (Telemetry.trace tel) ~name:"hop" ~round
          ~server:st.cfg.index ~dialing ?remote:st.ctx ()
      in
      st.ctx <- None;
      let s = Transport.stats st.tp in
      st.hop <- Some (span, (s.Conn.shaped_delay_ms, s.Conn.outages))

(* Forward a processed batch to the next hop as part frames, so the
   next server starts peeling while we are still queueing the rest. *)
let forward_downstream st ~kind ~round ~m onions =
  st.inflight <- Some (round, Round.is_dialing kind);
  (* Re-stamp the trace context per hop: downstream parents into our
     hop span (transitively into the coordinator's round root).  With
     tracing off, the upstream context passes through unchanged so the
     hops beyond us still link up. *)
  (match st.tel, st.hop with
  | Some tel, Some (span, _) ->
      send_downstream st
        (Rpc.Trace_ctx
           {
             ctx =
               Trace.encode_context
                 (Trace.context_of (Telemetry.trace tel) span);
           })
  | _ -> (
      match st.ctx with
      | Some c ->
          st.ctx <- None;
          send_downstream st (Rpc.Trace_ctx { ctx = Trace.encode_context c })
      | None -> ()));
  let parts =
    Rpc.split_parts
      ~chunk:(Option.value st.cfg.pipeline_chunk ~default:(Array.length onions))
      onions
  in
  let n = Array.length parts in
  Array.iteri
    (fun seq onions ->
      send_downstream st
        (Rpc.part kind ~round ~m ~seq ~last:(seq = n - 1) onions))
    parts

(* Create the Server once the downstream suffix is known — immediately
   for the last server, after the first successful handshake otherwise.
   The rng-seed derivation matches Chain.of_config byte for byte: that is
   the whole determinism argument for the multi-process deployment. *)
let ensure_server ?telemetry ?on_ready st =
  if st.server = None then begin
    let cfg = st.cfg in
    let rng_seed =
      Option.map
        (fun s ->
          Bytes.cat (Bytes.of_string s)
            (Bytes.of_string (Printf.sprintf "-server-%d" cfg.index)))
        cfg.seed
    in
    let server =
      Server.create ?rng_seed ?telemetry
        ~cfg:
          {
            Server.position = cfg.index;
            chain_len = cfg.chain_len;
            noise = cfg.noise;
            dial_noise = cfg.dial_noise;
            noise_mode = cfg.noise_mode;
            dial_kind = cfg.dial_kind;
            jobs = cfg.jobs;
            deaddrop_shards = cfg.deaddrop_shards;
          }
        ~suffix_pks:st.suffix ()
    in
    st.server <- Some server;
    st.log
      (Printf.sprintf "server %d/%d ready (%d downstream key(s))" cfg.index
         cfg.chain_len (List.length st.suffix));
    Option.iter (fun f -> f ()) on_ready;
    if st.hello_pending then begin
      st.hello_pending <- false;
      send_upstream st
        (Rpc.Chain_info { pks = Server.public_key server :: st.suffix });
      flush_outbox st
    end
  end

(* ------------------------------------------------------------------ *)
(* Socket-level fault injection                                        *)
(* ------------------------------------------------------------------ *)

(* The in-process chain injects faults as a batch crosses the link into
   server i; here the same plan entry fires as daemon i receives the
   batch.  Returns what the faulty wire delivered: [None] means the
   batch never arrives (drop, crash). *)
let inject st ~round raw msg =
  match st.faults with
  | None -> Some (Ok msg, [])
  | Some inj -> (
      match Fault.fire inj ~round ~server:st.cfg.index with
      | [] -> Some (Ok msg, [])
      | kinds ->
          st.log
            (Printf.sprintf "round %d: firing %s" round
               (String.concat ","
                  (List.map (Format.asprintf "%a" Fault.pp_kind) kinds)));
          let dropped = ref false in
          let tampers = ref [] in
          let frame_faults = ref [] in
          List.iter
            (fun k ->
              match k with
              | Fault.Crash ->
                  (* The receiving server "crashes": reset the upstream
                     connection; the peer's in-flight round dies with
                     it and its reconnect finds us again. *)
                  dropped := true;
                  Option.iter Conn.close st.upstream;
                  st.upstream <- None
              | Fault.Drop_link -> dropped := true
              | Fault.Delay_ms ms ->
                  (* A real stall: over sockets there is no virtual
                     clock to account it to. *)
                  Unix.sleepf (float_of_int ms /. 1000.)
              | Fault.Slow_link ms ->
                  (* Congested link: the batch arrived, late. *)
                  Unix.sleepf (float_of_int ms /. 1000.)
              | Fault.Flap ms ->
                  (* A reset that heals: drop the socket but keep the
                     batch — the round's reply waits in the outbox for
                     the peer's reconnect. *)
                  Option.iter Conn.close st.upstream;
                  st.upstream <- None;
                  if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.)
              | Fault.Partition ms ->
                  (* A cut link: batch lost, socket reset, slow heal. *)
                  dropped := true;
                  Option.iter Conn.close st.upstream;
                  st.upstream <- None;
                  if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.)
              | Fault.Tamper_slot s -> tampers := s :: !tampers
              | Fault.Corrupt_frame _ | Fault.Truncate_frame _
              | Fault.Extend_frame _ -> frame_faults := k :: !frame_faults)
            kinds;
          if !dropped then None
          else if !frame_faults <> [] then
            (* Mutate the received frame, then decode what's left: the
               typed rejection is exactly what the in-process receiver
               produces. *)
            let raw =
              List.fold_left Fault.apply_frame raw (List.rev !frame_faults)
            in
            Some (Rpc.decode raw, [])
          else Some (Ok msg, List.rev !tampers))

(* ------------------------------------------------------------------ *)
(* Batch ingress                                                       *)
(* ------------------------------------------------------------------ *)

(* One [*_batch_part] frame — the only way a batch arrives.  The faults
   of this (round, server) site fire once, at part 0, against the whole
   logical batch: crash/drop lose all of it (remaining parts are
   swallowed silently), frame faults damage the first part's frame, and
   [Tamper_slot] indexes the logical batch — it is applied to whichever
   arriving part carries that absolute slot. *)
let handle_part st server ~raw msg =
  let kind, round, m, seq, last, onions =
    match msg with
    | Rpc.Conv_batch_part { round; seq; last; onions } ->
        (Round.Conversation, round, 0, seq, last, onions)
    | Rpc.Dial_batch_part { round; m; seq; last; onions } ->
        (Round.Dialing, round, m, seq, last, onions)
    | _ -> assert false
  in
  let dialing = Round.is_dialing kind in
  let stage = Rpc.stage kind "batch" in
  let fail detail =
    st.stream <- None;
    send_upstream st (Rpc.Status (status st ~round ~stage detail));
    close_hop st
  in
  let feed ps ~last onions =
    let len = Array.length onions in
    let onions, pending =
      Fault.tamper_part ~off:ps.ps_off ps.ps_tampers onions
    in
    ps.ps_tampers <- pending;
    match Server.stream_feed server ps.ps_stream onions with
    | () -> (
        ps.ps_off <- ps.ps_off + len;
        ps.ps_seq <- ps.ps_seq + 1;
        if last then begin
          st.stream <- None;
          match Server.finish server ps.ps_stream ~m:ps.ps_m with
          | replies when is_last st ->
              send_upstream st (Rpc.results kind ~round replies);
              close_hop st
          | onions -> forward_downstream st ~kind ~round ~m:ps.ps_m onions
          | exception e -> fail (Printexc.to_string e)
        end)
    | exception e -> fail (Printexc.to_string e)
  in
  (* A part for a different round supersedes the stale stream: the
     supervisor moved on (its abort may have been lost with a link). *)
  (match st.stream with
  | Some ps when ps.ps_round <> round || ps.ps_kind <> kind ->
      st.stream <- None
  | _ -> ());
  if seq = 0 then begin
    open_hop st ~round ~dialing;
    let ps =
      {
        ps_round = round;
        ps_kind = kind;
        ps_m = m;
        ps_stream = Server.stream server ~kind ~round;
        ps_seq = 0;
        ps_off = 0;
        ps_tampers = [];
        ps_poisoned = false;
      }
    in
    st.stream <- Some ps;
    match inject st ~round raw msg with
    | None ->
        ps.ps_poisoned <- true (* the whole batch never arrives *);
        close_hop st
    | Some (Error e, _) ->
        ps.ps_poisoned <- true;
        send_upstream st (Rpc.Status (status st ~round ~stage e));
        close_hop st
    | Some (Ok msg, tampers) ->
        ps.ps_tampers <- tampers;
        (* A [Corrupt_frame] can re-decode to different content. *)
        let last, onions =
          match msg with
          | Rpc.Conv_batch_part { last; onions; _ }
          | Rpc.Dial_batch_part { last; onions; _ } -> (last, onions)
          | _ -> (last, onions)
        in
        feed ps ~last onions
  end
  else
    match st.stream with
    | None -> () (* stale tail of an abandoned round *)
    | Some ps when ps.ps_poisoned -> ()
    | Some ps when ps.ps_seq = seq -> feed ps ~last onions
    | Some ps ->
        (* Ordered link: a sequence gap is a protocol violation. *)
        fail (Printf.sprintf "part %d arrived, expected %d" seq ps.ps_seq)

(* ------------------------------------------------------------------ *)
(* Frame handling                                                      *)
(* ------------------------------------------------------------------ *)

let handle_downstream st msg =
  let server = Option.get st.server in
  let finish round =
    match st.inflight with
    | Some (r, _) when r = round -> st.inflight <- None
    | _ -> ()
  in
  match msg with
  | (Rpc.Conv_results { round; replies } | Rpc.Dial_results { round; replies })
    as msg ->
      let kind =
        match msg with
        | Rpc.Dial_results _ -> Round.Dialing
        | _ -> Round.Conversation
      in
      finish round;
      (match Server.backward server ~kind ~round replies with
      | replies -> send_upstream st (Rpc.results kind ~round replies)
      | exception e ->
          send_upstream st
            (Rpc.Status
               (status st ~round ~stage:(Rpc.stage kind "results")
                  (Printexc.to_string e))));
      close_hop st
  | Rpc.Drop_contents _ as m -> send_upstream st m
  | Rpc.Status s ->
      finish s.Rpc.round;
      send_upstream st (Rpc.Status s);
      close_hop st
  | _ -> ()

let handle_upstream st raw =
  match Rpc.decode raw with
  | Error e ->
      send_upstream st
        (Rpc.Status (status st ~round:0 ~stage:"frame" e))
  | Ok (Rpc.Hello _) -> (
      match st.server with
      | Some server ->
          send_upstream st
            (Rpc.Chain_info { pks = Server.public_key server :: st.suffix });
          (* Frames owed from before the flap follow the handshake
             reply, in order: the reconnected peer's pending round can
             still complete. *)
          flush_outbox st
      | None -> st.hello_pending <- true)
  | Ok (Rpc.Trace_ctx { ctx }) ->
      (* Tolerated-if-absent, ignored-if-malformed: a poisoned blob
         decodes to [None] and costs only the parent link. *)
      st.ctx <- Trace.decode_context ctx
  | Ok (Rpc.Bye) ->
      close_hop st;
      send_downstream st Rpc.Bye;
      st.stop <- true
  | Ok (Rpc.Abort { round; dialing }) -> (
      close_hop st;
      (match st.inflight with
      | Some (r, d) when r = round && d = dialing -> st.inflight <- None
      | _ -> ());
      (match st.stream with
      | Some ps
        when ps.ps_round = round && Round.is_dialing ps.ps_kind = dialing ->
          st.stream <- None
      | _ -> ());
      send_downstream st (Rpc.Abort { round; dialing });
      match st.server with
      | None -> ()
      | Some server ->
          if dialing then Server.abort_dial_round server ~round
          else Server.abort_conv_round server ~round)
  | Ok msg -> (
      match st.server with
      | None -> (
          (* A batch before our keys exist can only mean the chain is
             still assembling; the peer's supervisor will retry.  A
             streamed round answers once, at its first part. *)
          match msg with
          | Rpc.Conv_batch_part { seq; _ } | Rpc.Dial_batch_part { seq; _ }
            when seq > 0 ->
              ()
          | _ ->
              let round =
                match msg with
                | Rpc.Conv_batch_part { round; _ }
                | Rpc.Dial_batch_part { round; _ } -> round
                | _ -> 0
              in
              send_upstream st
                (Rpc.Status
                   (status st ~round ~stage:"transport" "server not ready")))
      | Some server -> (
          match msg with
          | Rpc.Conv_batch_part _ | Rpc.Dial_batch_part _ ->
              handle_part st server ~raw msg
          | Rpc.Fetch_drop { dial_round; index } -> (
              if is_last st then
                match Server.fetch_invitations ~dial_round server ~index with
                | invitations ->
                    send_upstream st
                      (Rpc.Drop_contents { dial_round; index; invitations })
                | exception e ->
                    send_upstream st
                      (Rpc.Status
                         (status st ~round:dial_round ~stage:"fetch-drop"
                            (Printexc.to_string e)))
              else send_downstream st (Rpc.Fetch_drop { dial_round; index }))
          | _ -> ()))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let run ?telemetry ?(log = fun _ -> ()) ?on_ready cfg =
  if cfg.index < 0 || cfg.index >= cfg.chain_len then
    Error
      (Printf.sprintf "daemon: index %d outside chain of %d" cfg.index
         cfg.chain_len)
  else if (cfg.next = None) <> (cfg.index = cfg.chain_len - 1) then
    Error "daemon: exactly the last server runs without --next"
  else begin
    (* Scrape endpoints imply a sink: a daemon asked to expose /metrics
       self-instruments even when the embedder passed none.  Origin
       [index + 1] is the merge convention (0 is the coordinator). *)
    let telemetry =
      match telemetry with
      | Some _ -> telemetry
      | None when cfg.metrics_listen <> None || cfg.trace_out <> None ->
          Some (Telemetry.create ~origin:(cfg.index + 1) ())
      | None -> None
    in
    let tp = Transport.create ?telemetry () in
    let st =
      {
        cfg;
        tp;
        log;
        tel = telemetry;
        started_ms = Unix.gettimeofday () *. 1000.;
        faults = Option.map Fault.injector cfg.fault_plan;
        server = None;
        suffix = [];
        upstream = None;
        downstream = None;
        hello_pending = false;
        inflight = None;
        stream = None;
        outbox = Queue.create ();
        ctx = None;
        hop = None;
        last_round = 0;
        hops_done = 0;
        stop = false;
      }
    in
    (* Listen before anything else: an upstream peer may dial while the
       downstream handshake is still assembling; its Hello waits. *)
    let listener =
      Transport.listen tp cfg.listen
        ~on_accept:(fun fd peer ->
          st.log
            (Printf.sprintf "upstream connection from %s"
               (Vuvuzela_transport.Addr.to_string peer));
          (* The chain has exactly one upstream; a new connection
             replaces a dead (or superseded) predecessor. *)
          Option.iter Conn.close st.upstream;
          let conn =
            Conn.of_fd ~loop:(Transport.loop tp) ~fd
              ~stats:(Transport.stats tp)
              ~on_frame:(fun _ raw -> handle_upstream st raw)
              ~on_drop:(fun conn ->
                (* physical equality: a Conn.t holds closures, and this
                   conn may already have been superseded by a newer
                   accept *)
                match st.upstream with
                | Some current when current == conn -> st.upstream <- None
                | _ -> ())
              ()
          in
          st.upstream <- Some conn)
        ()
    in
    match listener with
    | Error e -> Error e
    | Ok _listener -> (
        (* /healthz is rendered per request, so it always reflects live
           state: chain position, peer liveness, round progress. *)
        let healthz () =
          let connected = function
            | Some c -> Conn.state c <> Conn.Closed
            | None -> false
          in
          Json.to_string
            (Json.Obj
               [
                 ( "status",
                   Json.Str (if st.server <> None then "ok" else "starting") );
                 ("index", Json.Num (float_of_int cfg.index));
                 ("chain_len", Json.Num (float_of_int cfg.chain_len));
                 ("last", Json.Bool (is_last st));
                 ("round", Json.Num (float_of_int st.last_round));
                 ("hops_done", Json.Num (float_of_int st.hops_done));
                 ("upstream_connected", Json.Bool (connected st.upstream));
                 ("downstream_connected", Json.Bool (connected st.downstream));
                 ("outbox_depth", Json.Num (float_of_int (Queue.length st.outbox)));
                 ( "uptime_ms",
                   Json.Num ((Unix.gettimeofday () *. 1000.) -. st.started_ms) );
               ])
          ^ "\n"
        in
        let routes path =
          match (path, st.tel) with
          | "/healthz", _ -> Some ("application/json", healthz ())
          | "/metrics", Some tel ->
              (* Refresh the liveness gauges at scrape time so the
                 exposition is never empty: a freshly started daemon
                 already reports uptime, position, and queue depth. *)
              Telemetry.set_gauge st.tel "vuvuzela_daemon_uptime_ms"
                ((Unix.gettimeofday () *. 1000.) -. st.started_ms);
              Telemetry.set_gauge st.tel "vuvuzela_daemon_chain_index"
                (float_of_int cfg.index);
              Telemetry.set_gauge st.tel "vuvuzela_daemon_outbox_depth"
                (float_of_int (Queue.length st.outbox));
              Telemetry.set_gauge st.tel "vuvuzela_daemon_round"
                (float_of_int st.last_round);
              Some
                ( "text/plain; version=0.0.4",
                  Metrics.to_prometheus (Telemetry.metrics tel) )
          | "/trace", Some tel ->
              Some ("application/jsonl", Trace.to_jsonl (Telemetry.trace tel))
          | _ -> None
        in
        let httpd =
          match cfg.metrics_listen with
          | None -> Ok None
          | Some addr -> (
              match Httpd.serve (Transport.loop tp) ~addr ~routes with
              | Ok h ->
                  st.log (Printf.sprintf "scrape endpoints on port %d" (Httpd.port h));
                  Ok (Some h)
              | Error e -> Error e)
        in
        match httpd with
        | Error e -> Error e
        | Ok httpd ->
        (match cfg.next with
        | None ->
            ensure_server ?telemetry ?on_ready st (* last server: no suffix *)
        | Some next_addr ->
            let backoff_seed =
              Option.map
                (fun s -> Printf.sprintf "%s-backoff-%d" s cfg.index)
                cfg.seed
            in
            let shaper =
              Option.map
                (fun link ->
                  match cfg.seed with
                  | Some s ->
                      Shaper.with_seed
                        (Printf.sprintf "%s-link-%d" s cfg.index)
                        link
                  | None -> link)
                cfg.link
            in
            let down =
              Transport.dial tp ~addr:next_addr
                ~hello:(Rpc.encode (Rpc.Hello { index = cfg.index }))
                ?backoff_seed ?shaper
                ~on_established:(fun _ payload ->
                  match Rpc.decode payload with
                  | Ok (Rpc.Chain_info { pks }) ->
                      if st.server = None then begin
                        st.suffix <- pks;
                        ensure_server ?telemetry ?on_ready st
                      end
                  | Ok _ | Error _ ->
                      st.log "malformed downstream handshake reply")
                ~on_frame:(fun _ raw ->
                  match Rpc.decode raw with
                  | Ok msg when st.server <> None -> handle_downstream st msg
                  | Ok _ | Error _ -> ())
                ~on_drop:(fun conn ->
                  st.log "downstream link lost";
                  (* Grace, not instant abort: the connection redials on
                     its own, the successor holds our round's results in
                     its outbox, and a link that heals inside
                     [flap_grace_ms] lets the round complete.  Only a
                     link still down (for the same in-flight round) when
                     the grace expires abandons the round. *)
                  match st.inflight with
                  | Some (round, dialing) when cfg.flap_grace_ms > 0. ->
                      ignore
                        (Evloop.after (Transport.loop tp)
                           ~ms:cfg.flap_grace_ms (fun () ->
                             match st.inflight with
                             | Some (r, d)
                               when r = round && d = dialing
                                    && not (Conn.established conn) ->
                                 st.inflight <- None;
                                 send_upstream st
                                   (Rpc.Status
                                      (status st ~round
                                         ~stage:
                                           (if dialing then "dial-batch"
                                            else "conv-batch")
                                         "downstream link lost"))
                             | _ -> ()))
                  | Some (round, dialing) ->
                      st.inflight <- None;
                      send_upstream st
                        (Rpc.Status
                           (status st ~round
                              ~stage:(if dialing then "dial-batch" else "conv-batch")
                              "downstream link lost"))
                  | None -> ())
                ()
            in
            st.downstream <- Some down);
        while not st.stop do
          Transport.run_once tp
        done;
        (* Drain: let the forwarded Bye and any last replies flush. *)
        for _ = 1 to 10 do
          Transport.run_once ~max_wait_ms:5. tp
        done;
        close_hop st;
        (match (cfg.trace_out, st.tel) with
        | Some path, Some tel ->
            let oc = open_out path in
            output_string oc (Trace.to_jsonl (Telemetry.trace tel));
            close_out oc
        | _ -> ());
        Option.iter (fun h -> Httpd.close h) httpd;
        Option.iter Conn.close st.downstream;
        Option.iter Conn.close st.upstream;
        Option.iter Server.shutdown st.server;
        Ok ())
  end
