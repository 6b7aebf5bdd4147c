(* One chain server on an event loop; see the interface for the
   topology and the handshake cascade.

   Concurrency shape: everything runs on the transport's event loop in
   one thread.  Each link carries one round at a time (its batch as
   ordered parts down, one results frame up), so the daemon is a state
   machine over three events — upstream accept, upstream frame, and a
   reply from its downstream link — and batches arrive through its
   {!Hop}.  The downstream link is a {!Remote}, the coordinator's link
   end: it owns the handshake's keys, the round in flight and the flap
   grace.  The same code runs a server process on sockets ({!run}) and
   each server of the in-process chain on the chain's shared loop
   ({!start}). *)

module Transport = Vuvuzela_transport.Transport
module Conn = Vuvuzela_transport.Conn
module Httpd = Vuvuzela_transport.Httpd
module Fault = Vuvuzela_faults.Fault
module Pool = Vuvuzela_parallel.Pool
module Telemetry = Vuvuzela_telemetry.Telemetry
module Trace = Vuvuzela_telemetry.Trace
module Metrics = Vuvuzela_telemetry.Metrics
module Json = Vuvuzela_telemetry.Json

type config = {
  listen : Unix.sockaddr;
  next : Unix.sockaddr option;
  index : int;
  deployment : Config.t;
  metrics_listen : Unix.sockaddr option;
      (** mount the scrape endpoints ([/metrics], [/healthz], [/trace])
          on this address; a telemetry sink is created if the deployment
          has none *)
  trace_out : string option;
      (** write this daemon's span trace (JSONL) here on shutdown *)
}

(* Where the upstream connection's handshake stands.  The dialer takes
   the first frame it receives for the handshake reply, so nothing else
   may reach the connection before it: until then, replies owed
   upstream wait in the outbox. *)
type handshake =
  | Awaiting_hello
  | Hello_pending  (** upstream said Hello before our own keys existed *)
  | Answered  (** the Chain_info reply is sent; replies may follow *)

type t = {
  cfg : config;
  tp : Transport.t;
  log : string -> unit;
  tel : Telemetry.t option;
  pool : Pool.t option;  (** shared with the other servers in process *)
  faults : Fault.injector option;
  started_ms : float;
  mutable hop : Hop.t option;  (** once the downstream keys are known *)
  mutable upstream : Conn.t option;
  mutable downstream : Remote.t option;  (** [None] for the last server *)
  mutable handshake : handshake;  (** of [upstream] *)
  outbox : bytes Queue.t;
      (** upstream frames owed while the upstream link is down or its
          handshake unanswered; flushed (after the Chain_info reply) when
          the peer reconnects — a round survives an upstream flap
          instead of silently losing its results *)
  mutable ctx : Trace.context option;
      (** trace context announced by the upstream peer for the next
          batch; taken when that batch's part 0 opens the hop *)
  mutable span : (Trace.span * (float * int)) option;
      (** the open per-round hop span, with the (shaped delay, outage
          count) transport-stats snapshot taken when it opened *)
  mutable pass_ctx : Trace.context option;
      (** untraced: the context that preceded the open round, sent
          ahead of its batch downstream; dropped when the round ends *)
  mutable last_round : int;
  mutable hops_done : int;
  mutable stop : bool;
  mutable reset_due : bool;
      (** a fired reset, waiting for the round's batch to land *)
  mutable httpd : Httpd.t option;
}

let is_last st = st.cfg.next = None

(* The downstream public keys in use, chain order: the hop wraps its
   noise to them, and the Chain_info reply announces them. *)
let suffix st = Option.fold ~none:[] ~some:Remote.public_keys st.downstream
let key_change st = Option.bind st.downstream Remote.key_change

(* X25519 operations by kind, at scrape time: the counter family gains
   what [Curve25519.op_counts] gained since the previous scrape. *)
let publish_x25519_ops reg published =
  let module C = Vuvuzela_crypto.Curve25519 in
  let now = C.op_counts () and prev = !published in
  List.iter
    (fun (kind, n, p) ->
      Metrics.inc
        ~by:(float_of_int (n - p))
        (Metrics.counter reg ~labels:[ ("kind", kind) ]
           ~help:
             "X25519 operations of this process by kind (in a daemon: its \
              server's peels and sealed boxes on the ladder, noise wraps on \
              the base and keyed combs)"
           "vuvuzela_x25519_ops_total"))
    [
      ("ladder", now.C.ladder, prev.C.ladder);
      ("base", now.C.base, prev.C.base);
      ("keyed", now.C.keyed, prev.C.keyed);
    ];
  published := now

(* Bounded so a peer that never returns cannot pin unbounded replies;
   drop-oldest, because the supervisor has certainly abandoned the
   oldest round first. *)
let outbox_cap = 128

let outbox_gauge st =
  Telemetry.set_gauge st.tel "vuvuzela_daemon_outbox_depth"
    (float_of_int (Queue.length st.outbox))

let uptime_ms st = Transport.now_ms st.tp -. st.started_ms

let answered st =
  match st.upstream with
  | Some up when st.handshake = Answered && Conn.state up <> Conn.Closed ->
      Some up
  | _ -> None

let send_upstream st msg =
  (match answered st with
  | Some up -> Conn.send up (Rpc.encode msg)
  | None ->
      if Queue.length st.outbox >= outbox_cap then ignore (Queue.pop st.outbox);
      Queue.push (Rpc.encode msg) st.outbox;
      Telemetry.add_counter st.tel "vuvuzela_daemon_outbox_frames_total");
  outbox_gauge st

let flush_outbox st =
  Option.iter
    (fun up ->
      while not (Queue.is_empty st.outbox) do
        Conn.send up (Queue.pop st.outbox)
      done)
    (answered st);
  outbox_gauge st

let send_downstream st msg =
  Option.iter (fun down -> Remote.send down msg) st.downstream

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
  st.pass_ctx <- None;
  match st.span with
  | None -> ()
  | Some (span, (shaped0, outages0)) ->
      st.span <- None;
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
  close_hop st;
  match st.tel with
  | None ->
      st.pass_ctx <- st.ctx;
      st.ctx <- None
  | Some tel ->
      let span =
        Trace.begin_remote_span (Telemetry.trace tel) ~name:"hop" ~round
          ~server:st.cfg.index ~dialing ?remote:st.ctx ()
      in
      st.ctx <- None;
      let s = Transport.stats st.tp in
      st.span <- Some (span, (s.Conn.shaped_delay_ms, s.Conn.outages))

(* Forward a processed batch to the next hop as part frames, so the
   next server starts peeling while we are still queueing the rest.
   The trace context is re-stamped per hop: downstream parents into our
   hop span (transitively into the coordinator's round root).  With
   tracing off, the context that preceded this round passes through
   unchanged so the hops beyond us still link up. *)
let forward_downstream st ~kind ~round ~m onions =
  let ctx =
    match (st.tel, st.span) with
    | Some tel, Some (span, _) ->
        Some (Trace.context_of (Telemetry.trace tel) span)
    | _ -> st.pass_ctx
  in
  Option.iter (fun down -> Remote.forward down ~kind ~round ~m ?ctx onions)
    st.downstream

(* What fired faults ask of a daemon: a stall sleeps through the loop —
   real time on sockets, skipped time on the in-process chain's virtual
   clock — and a reset closes the upstream connection (the peer's
   reconnect finds us again) once the round's batch has landed, so the
   parts still in flight behind part 0 are not lost with it: after a
   [Flap] nothing is lost but time, and the round's reply waits in the
   outbox. *)
let on_fire st ~round (f : Hop.fired) =
  st.log
    (Printf.sprintf "round %d: firing %s" round
       (String.concat "," (List.map (Format.asprintf "%a" Fault.pp_kind) f.kinds)));
  if f.reset then st.reset_due <- true;
  Transport.sleep st.tp ~ms:(float_of_int f.stall_ms)

let reset_upstream st =
  if st.reset_due then begin
    st.reset_due <- false;
    Option.iter Conn.close st.upstream;
    st.upstream <- None
  end

(* The handshake reply, then the frames owed from before a flap, in
   order: the reconnected peer's pending round can still complete. *)
let answer_hello st hop =
  Option.iter
    (fun up ->
      Conn.send up
        (Rpc.encode
           (Rpc.Chain_info
              { pks = Server.public_key (Hop.server hop) :: suffix st })))
    st.upstream;
  st.handshake <- Answered;
  flush_outbox st

(* Create the hop once the downstream suffix is known — immediately for
   the last server, after the first successful handshake otherwise. *)
let ensure_hop st =
  if st.hop = None then begin
    let cfg = st.cfg in
    let hop =
      Hop.create ?pool:st.pool ?faults:st.faults ?tap:cfg.deployment.tap
        ~on_fire:(fun f -> on_fire st ~round:st.last_round f)
        cfg.deployment ~position:cfg.index ~suffix_pks:(suffix st)
    in
    st.hop <- Some hop;
    st.log
      (Printf.sprintf "server %d/%d ready (%d downstream key(s))" cfg.index
         cfg.deployment.n_servers (List.length (suffix st)));
    if st.handshake = Hello_pending then answer_hello st hop
  end

(* A successor restarted without its seed comes back with a fresh key,
   and onions wrapped to the old one — our noise, the coordinator's
   clients' — would fail to authenticate there and vanish as invalid.
   So while the downstream link reports a key change, this hop runs no
   rounds. *)
let key_change_status st ~round detail =
  Rpc.Status (Rpc.key_change ~round ~server:st.cfg.index ~detail)

(* One [*_batch_part] frame — the only way a batch arrives — through the
   hop state machine.  A fault that loses the batch is swallowed: after
   a reset the link above answers the round when its grace ends, and
   otherwise the coordinator's deadline notices (in process, also the
   idle loop).  While the downstream
   keys have changed, a new round is answered at its first part and
   never run; the hop ignores the parts after it, since no round of
   theirs is open. *)
let handle_part st hop ~raw msg (kind, round, m, seq) =
  match key_change st with
  | Some detail when seq = 0 ->
      send_upstream st (key_change_status st ~round detail)
  | _ -> (
      if seq = 0 then open_hop st ~round ~dialing:(Round.is_dialing kind);
      let step = Hop.arrive hop ~msg raw in
      if step <> Hop.Absorbed then reset_upstream st;
      match step with
      | Hop.Absorbed | Hop.Ignored -> ()
      | Hop.Finished replies when is_last st ->
          send_upstream st (Rpc.results kind ~round replies);
          close_hop st
      | Hop.Finished onions -> forward_downstream st ~kind ~round ~m onions
      | Hop.Rejected s ->
          send_upstream st (Rpc.Status s);
          close_hop st
      | Hop.Dropped _ -> close_hop st)

(* ------------------------------------------------------------------ *)
(* Frame handling                                                      *)
(* ------------------------------------------------------------------ *)

(* Every reply from the downstream link, including the status it makes
   up for a round whose link stayed lost past the grace. *)
let handle_downstream st hop msg raw =
  match msg with
  | Rpc.Conv_results { round; _ } | Rpc.Dial_results { round; _ } ->
      let kind =
        match msg with
        | Rpc.Dial_results _ -> Round.Dialing
        | _ -> Round.Conversation
      in
      (* Results that crossed a successor whose key changed mid-round
         carry nothing: every onion wrapped to the old key failed
         there. *)
      send_upstream st
        (match (key_change st, Hop.backward hop ~kind ~round ~msg raw) with
        | Some detail, _ -> key_change_status st ~round detail
        | None, Ok replies -> Rpc.results kind ~round replies
        | None, Error s -> Rpc.Status s);
      close_hop st
  | Rpc.Drop_contents _ -> send_upstream st msg
  | Rpc.Status _ ->
      send_upstream st msg;
      close_hop st
  | _ -> ()

let handle_upstream st raw =
  match Rpc.decode raw with
  | Error e ->
      send_upstream st
        (Rpc.Status (status st ~round:0 ~stage:"frame" e))
  | Ok (Rpc.Hello _) -> (
      match st.hop with
      | Some hop -> answer_hello st hop
      | None -> st.handshake <- Hello_pending)
  | Ok (Rpc.Trace_ctx { ctx }) ->
      (* Tolerated-if-absent, ignored-if-malformed: a poisoned blob
         decodes to [None] and costs only the parent link. *)
      st.ctx <- Trace.decode_context ctx
  | Ok (Rpc.Bye) ->
      close_hop st;
      send_downstream st Rpc.Bye;
      st.stop <- true
  | Ok (Rpc.Abort { round; dialing }) ->
      let kind = if dialing then Round.Dialing else Round.Conversation in
      close_hop st;
      Option.iter (fun down -> Remote.abort down ~kind ~round) st.downstream;
      Option.iter (fun hop -> Hop.abort hop ~kind ~round) st.hop
  | Ok msg -> (
      match (st.hop, Rpc.part_header msg, msg) with
      | Some hop, Some header, _ -> handle_part st hop ~raw msg header
      | None, Some (_, _, _, seq), _ when seq > 0 -> ()
      | None, header, _ ->
          (* A batch before our keys exist can only mean the chain is
             still assembling; the peer's supervisor will retry.  A
             round answers once, at its first part. *)
          let round = match header with Some (_, r, _, _) -> r | None -> 0 in
          send_upstream st
            (Rpc.Status (status st ~round ~stage:"transport" "server not ready"))
      | Some hop, None, Rpc.Fetch_drop { dial_round; index } -> (
          if is_last st then
            match
              Server.fetch_invitations ~dial_round (Hop.server hop) ~index
            with
            | invitations ->
                send_upstream st
                  (Rpc.Drop_contents { dial_round; index; invitations })
            | exception e ->
                send_upstream st
                  (Rpc.Status
                     (status st ~round:dial_round ~stage:"fetch-drop"
                        (Printexc.to_string e)))
          else send_downstream st msg)
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* /healthz is rendered per request, so it always reflects live state:
   chain position, peer liveness, round progress. *)
let healthz st =
  let connected = function
    | Some c -> Conn.state c <> Conn.Closed
    | None -> false
  in
  Json.to_string
    (Json.Obj
       [
         ("status", Json.Str (if st.hop <> None then "ok" else "starting"));
         ("index", Json.Num (float_of_int st.cfg.index));
         ("chain_len", Json.Num (float_of_int st.cfg.deployment.n_servers));
         ("last", Json.Bool (is_last st));
         ("round", Json.Num (float_of_int st.last_round));
         ("hops_done", Json.Num (float_of_int st.hops_done));
         ("upstream_connected", Json.Bool (connected st.upstream));
         ("downstream_connected", Json.Bool (st.downstream <> None));
         ("outbox_depth", Json.Num (float_of_int (Queue.length st.outbox)));
         ("uptime_ms", Json.Num (uptime_ms st));
       ])
  ^ "\n"

let routes st =
  let x25519_published =
    ref Vuvuzela_crypto.Curve25519.{ ladder = 0; base = 0; keyed = 0 }
  in
  fun path ->
    match (path, st.tel) with
    | "/healthz", _ -> Some ("application/json", healthz st)
    | "/metrics", Some tel ->
        (* Refresh the liveness gauges at scrape time so the exposition
           is never empty: a freshly started daemon already reports
           uptime, position, and queue depth. *)
        publish_x25519_ops (Telemetry.metrics tel) x25519_published;
        Telemetry.set_gauge st.tel "vuvuzela_daemon_uptime_ms" (uptime_ms st);
        Telemetry.set_gauge st.tel "vuvuzela_daemon_chain_index"
          (float_of_int st.cfg.index);
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

(* The chain has exactly one upstream; a new connection replaces a dead
   (or superseded) predecessor. *)
let accept_upstream st conn peer =
  st.log
    (Printf.sprintf "upstream connection from %s"
       (Vuvuzela_transport.Addr.to_string peer));
  Option.iter Conn.close st.upstream;
  st.handshake <- Awaiting_hello;
  st.upstream <- Some conn

(* Physical equality: a Conn.t holds closures, and this conn may already
   have been superseded by a newer accept. *)
let upstream_dropped st conn =
  match st.upstream with
  | Some current when current == conn -> st.upstream <- None
  | _ -> ()

let dial_downstream st next =
  let backoff_seed, link =
    Remote.link_of st.cfg.deployment ~tag:(string_of_int st.cfg.index)
  in
  let down =
    Remote.dial st.tp ~index:st.cfg.index ?telemetry:st.tel ?backoff_seed
      ?link ~flap_grace_ms:st.cfg.deployment.flap_grace_ms
      ~log:(fun m -> st.log ("downstream " ^ m))
      ~on_keys:(fun _ -> ensure_hop st)
      ~on_reply:(fun msg raw ->
        Option.iter (fun hop -> handle_downstream st hop msg raw) st.hop)
      ~addr:next ()
  in
  Remote.set_pipeline down (Config.part_chunk st.cfg.deployment);
  st.downstream <- Some down

let start tp ?pool ?faults ?(log = fun _ -> ()) cfg =
  let chain_len = cfg.deployment.n_servers in
  if cfg.index < 0 || cfg.index >= chain_len then
    Error
      (Printf.sprintf "daemon: index %d outside chain of %d" cfg.index
         chain_len)
  else if (cfg.next = None) <> (cfg.index = chain_len - 1) then
    Error "daemon: exactly the last server runs without --next"
  else begin
    let st =
      {
        cfg;
        tp;
        log;
        tel = cfg.deployment.telemetry;
        pool;
        faults;
        started_ms = Transport.now_ms tp;
        hop = None;
        upstream = None;
        downstream = None;
        handshake = Awaiting_hello;
        outbox = Queue.create ();
        ctx = None;
        span = None;
        pass_ctx = None;
        last_round = 0;
        hops_done = 0;
        stop = false;
        reset_due = false;
        httpd = None;
      }
    in
    (* Listen before anything else: an upstream peer may dial while the
       downstream handshake is still assembling; its Hello waits. *)
    let ( let* ) = Result.bind in
    let* _listener =
      Transport.listen tp cfg.listen ~on_accept:(accept_upstream st)
        ~on_frame:(fun _ raw -> handle_upstream st raw)
        ~on_drop:(upstream_dropped st) ()
    in
    let* () =
      match cfg.metrics_listen with
      | None -> Ok ()
      | Some addr ->
          let* h = Httpd.serve (Transport.loop tp) ~addr ~routes:(routes st) in
          st.log (Printf.sprintf "scrape endpoints on port %d" (Httpd.port h));
          st.httpd <- Some h;
          Ok ()
    in
    (match cfg.next with
    | None -> ensure_hop st (* last server: no suffix *)
    | Some next -> dial_downstream st next);
    Ok st
  end

let server st = Option.map Hop.server st.hop

let close st =
  close_hop st;
  (match (st.cfg.trace_out, st.tel) with
  | Some path, Some tel ->
      let oc = open_out path in
      output_string oc (Trace.to_jsonl (Telemetry.trace tel));
      close_out oc
  | _ -> ());
  Option.iter Httpd.close st.httpd;
  st.httpd <- None;
  Option.iter Remote.close st.downstream;
  Option.iter Conn.close st.upstream;
  Option.iter (fun hop -> Server.shutdown (Hop.server hop)) st.hop

let run ?log cfg =
  (* Scrape endpoints imply a sink: a daemon asked to expose /metrics
     self-instruments even when the deployment carries none.  Origin
     [index + 1] is the merge convention (0 is the coordinator). *)
  let telemetry =
    match cfg.deployment.telemetry with
    | Some _ as tel -> tel
    | None when cfg.metrics_listen <> None || cfg.trace_out <> None ->
        Some (Telemetry.create ~origin:(cfg.index + 1) ())
    | None -> None
  in
  let cfg = { cfg with deployment = { cfg.deployment with telemetry } } in
  let tp = Transport.create ?telemetry () in
  let faults = Option.map Fault.injector cfg.deployment.fault_plan in
  match start tp ?faults ?log cfg with
  | Error e -> Error e
  | Ok st ->
      while not st.stop do
        Transport.run_once tp
      done;
      (* Drain: let the forwarded Bye and any last replies flush. *)
      for _ = 1 to 10 do
        Transport.run_once ~max_wait_ms:5. tp
      done;
      close st;
      Ok ()
