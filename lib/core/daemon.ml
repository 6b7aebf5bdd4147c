(* One chain server on an event loop; see the interface for the
   topology and the handshake cascade.

   Concurrency shape: everything runs on the transport's event loop in
   one thread.  Each link carries one round at a time (its batch as
   ordered parts down, one results frame up), so the daemon is a state
   machine over three events — upstream accept, upstream frame, and a
   reply from its downstream link — and a round's parts peel into its
   one [ingress] as they land.  The downstream link is a {!Remote}, the
   coordinator's link end: it owns the handshake's keys, the round in
   flight and the flap grace.  The same code runs a server process on
   sockets ({!run}) and each server of the in-process chain on the
   chain's shared loop ({!start}). *)

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

(* The round now arriving: its faults fired at part 0, and each part
   peels into [stream] as it lands. *)
type ingress = {
  kind : Round.kind;
  round : int;
  m : int;  (** dialing rounds, as part 0 decoded; [0] for conversation *)
  stream : Server.stream;
  mutable seq : int;  (** the next part expected *)
  mutable off : int;  (** onions fed so far = absolute slot of the next *)
  mutable tampers : int list;  (** [Tamper] slots not yet reached *)
}

type t = {
  cfg : config;
  tp : Transport.t;
  log : string -> unit;
  tel : Telemetry.t option;
  pool : Pool.t option;  (** shared with the other servers in process *)
  faults : Fault.injector option;
  started_ms : float;
  mutable server : Server.t option;  (** once the downstream keys are known *)
  mutable ingress : ingress option;  (** from part 0 to the last part *)
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
          batch; taken when that batch's part 0 opens the round *)
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

(* The downstream public keys in use, chain order: the server wraps its
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

let reset_upstream st =
  if st.reset_due then begin
    st.reset_due <- false;
    Option.iter Conn.close st.upstream;
    st.upstream <- None
  end

(* The handshake reply, then the frames owed from before a flap, in
   order: the reconnected peer's pending round can still complete. *)
let answer_hello st server =
  Option.iter
    (fun up ->
      Conn.send up
        (Rpc.encode
           (Rpc.Chain_info { pks = Server.public_key server :: suffix st })))
    st.upstream;
  st.handshake <- Answered;
  flush_outbox st

(* Create the server once the downstream suffix is known — immediately
   for the last server, after the first successful handshake otherwise.
   {!Server.create} derives everything else from the deployment, so a
   seeded daemon is bit-identical to the same position of an in-process
   chain. *)
let ensure_server st =
  if st.server = None then begin
    let cfg = st.cfg.deployment and position = st.cfg.index in
    let server =
      Server.create ?pool:st.pool cfg ~position ~suffix_pks:(suffix st)
    in
    st.server <- Some server;
    st.log
      (Printf.sprintf "server %d/%d ready (%d downstream key(s))" position
         cfg.n_servers (List.length (suffix st)));
    if st.handshake = Hello_pending then answer_hello st server
  end

(* A successor restarted without its seed comes back with a fresh key,
   and onions wrapped to the old one — our noise, the coordinator's
   clients' — would fail to authenticate there and vanish as invalid.
   So while the downstream link reports a key change, this hop runs no
   rounds. *)
let key_change_status st ~round detail =
  Rpc.Status (Rpc.key_change ~round ~server:st.cfg.index ~detail)

(* ------------------------------------------------------------------ *)
(* A round's ingress                                                   *)
(* ------------------------------------------------------------------ *)

(* Every fired fault becomes a counter sample and an annotation on the
   innermost open span (the hop span); stalls also feed their own
   counters, so a degraded round is visible apart from its wall-clock
   timings. *)
let record_fault st k =
  let tag = Fault.tag k in
  Telemetry.add_counter st.tel ~labels:[ ("kind", tag) ]
    "vuvuzela_faults_injected_total";
  Telemetry.annotate st.tel ("fault." ^ tag)
    (Printf.sprintf "server=%d" st.cfg.index);
  List.iter
    (function
      | Fault.Delay ms ->
          Telemetry.add_counter st.tel ~by:(float_of_int ms)
            "vuvuzela_injected_delay_ms_total"
      | Fault.Stall ms ->
          Telemetry.add_counter st.tel ~labels:[ ("kind", tag) ]
            "vuvuzela_link_stalls_total";
          Telemetry.add_counter st.tel ~by:(float_of_int ms)
            "vuvuzela_injected_delay_ms_total"
      | Fault.Lose | Fault.Reset | Fault.Tamper _ | Fault.Edit_frame -> ())
    (Fault.effects k)

(* The round's part that broke the protocol (undecodable, wrong kind or
   round, a [seq] gap) or that the server refused: answer upstream with
   the status.  The round's later parts find no ingress and are
   ignored. *)
let reject st ~kind ~round detail =
  st.ingress <- None;
  reset_upstream st;
  send_upstream st
    (Rpc.Status (status st ~round ~stage:(Rpc.stage kind "batch") detail));
  close_hop st

(* One decoded part of the open round: check it, tamper the slots it
   carries, peel it, and finish the round on the part that says [last]:
   the last server's replies go upstream, a mixing server's batch goes
   on down under the part's header as received ([m]). *)
let feed st server g ~m msg =
  match (Rpc.part_header msg, msg) with
  | ( Some (kind, round, _, seq),
      ( Rpc.Conv_batch_part { last; onions; _ }
      | Rpc.Dial_batch_part { last; onions; _ } ) )
    when kind = g.kind && round = g.round -> (
      if seq <> g.seq then
        (* Ordered link: a sequence gap is a protocol violation. *)
        reject st ~kind ~round
          (Printf.sprintf "part %d arrived, expected %d" seq g.seq)
      else
        let len = Array.length onions in
        let onions, pending = Fault.tamper_part ~off:g.off g.tampers onions in
        g.tampers <- pending;
        Option.iter
          (fun tap -> tap ~round ~server:st.cfg.index onions)
          st.cfg.deployment.tap;
        match Server.stream_feed server g.stream onions with
        | exception e -> reject st ~kind ~round (Printexc.to_string e)
        | () when not last ->
            g.seq <- seq + 1;
            g.off <- g.off + len
        | () -> (
            st.ingress <- None;
            match Server.finish server g.stream ~m:g.m with
            | exception e -> reject st ~kind ~round (Printexc.to_string e)
            | out when is_last st ->
                reset_upstream st;
                send_upstream st (Rpc.results kind ~round out);
                close_hop st
            | out ->
                reset_upstream st;
                forward_downstream st ~kind ~round ~m out))
  | _ -> reject st ~kind:g.kind ~round:g.round "unexpected message"

(* Part 0 of a round: fire the site's faults and apply their effects
   (see the interface), then open the round on the frame the faulty wire
   delivered: a damaged part 0 that still decodes is checked and peeled
   as decoded, [last] and [m] included. *)
let open_round st server ~kind ~round ~m raw msg =
  st.ingress <- None;
  let kinds =
    match st.faults with
    | None -> []
    | Some inj -> Fault.fire inj ~round ~server:st.cfg.index
  in
  let effects = List.concat_map Fault.effects kinds in
  let stall_ms = function Fault.Delay ms | Fault.Stall ms -> ms | _ -> 0 in
  if kinds <> [] then
    st.log
      (Printf.sprintf "round %d: firing %s" round
         (String.concat ","
            (List.map (Format.asprintf "%a" Fault.pp_kind) kinds)));
  if List.mem Fault.Reset effects then st.reset_due <- true;
  Transport.sleep st.tp
    ~ms:(float_of_int (List.fold_left (fun ms e -> ms + stall_ms e) 0 effects));
  List.iter (record_fault st) kinds;
  if List.mem Fault.Lose effects then begin
    reset_upstream st;
    close_hop st
  end
  else
    match
      if List.mem Fault.Edit_frame effects then
        Rpc.decode (List.fold_left Fault.apply_frame raw kinds)
      else Ok msg
    with
    | Error detail -> reject st ~kind ~round detail
    | Ok msg ->
        let g =
          {
            kind;
            round;
            m =
              (match Rpc.part_header msg with
              | Some (_, _, m, _) -> m
              | None -> 0);
            stream = Server.stream server ~kind ~round;
            seq = 0;
            off = 0;
            tampers =
              List.filter_map
                (function Fault.Tamper s -> Some s | _ -> None)
                effects;
          }
        in
        st.ingress <- Some g;
        feed st server g ~m msg

(* One [*_batch_part] frame — the only way a batch arrives.  While the
   downstream keys have changed, a new round is answered at its first
   part and never run; the parts after it find no ingress and are
   ignored. *)
let handle_part st server ~raw msg (kind, round, m, seq) =
  match key_change st with
  | Some detail when seq = 0 ->
      send_upstream st (key_change_status st ~round detail)
  | _ when seq = 0 ->
      open_hop st ~round ~dialing:(Round.is_dialing kind);
      open_round st server ~kind ~round ~m raw msg
  | _ -> (
      match st.ingress with
      | Some g when g.kind = kind && g.round = round -> feed st server g ~m msg
      | _ ->
          (* The tail of a round already over, or of a stale round that
             this part's round supersedes: the supervisor moved on (its
             abort may have been lost with a link). *)
          st.ingress <- None;
          reset_upstream st)

(* ------------------------------------------------------------------ *)
(* Frame handling                                                      *)
(* ------------------------------------------------------------------ *)

(* Every reply from the downstream link, including the status it makes
   up for a round whose link stayed lost past the grace. *)
let handle_downstream st server msg =
  match msg with
  | Rpc.Conv_results { round; replies } | Rpc.Dial_results { round; replies }
    ->
      let kind =
        match msg with
        | Rpc.Dial_results _ -> Round.Dialing
        | _ -> Round.Conversation
      in
      (* Sealed even when a key change voids the results: [backward]
         frees the round's state and makes its DRBG draws either way. *)
      let reply =
        match Server.backward server ~kind ~round replies with
        | replies -> Rpc.results kind ~round replies
        | exception e ->
            Rpc.Status
              (status st ~round ~stage:(Rpc.stage kind "results")
                 (Printexc.to_string e))
      in
      (* Results that crossed a successor whose key changed mid-round
         carry nothing: every onion wrapped to the old key failed
         there. *)
      send_upstream st
        (match key_change st with
        | Some detail -> key_change_status st ~round detail
        | None -> reply);
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
      match st.server with
      | Some server -> answer_hello st server
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
      (* Discard the round: its open ingress, and its state on the
         server. *)
      (match st.ingress with
      | Some g when g.kind = kind && g.round = round -> st.ingress <- None
      | _ -> ());
      Option.iter
        (fun server ->
          match kind with
          | Round.Conversation -> Server.abort_conv_round server ~round
          | Round.Dialing -> Server.abort_dial_round server ~round)
        st.server
  | Ok msg -> (
      match (st.server, Rpc.part_header msg, msg) with
      | Some server, Some header, _ -> handle_part st server ~raw msg header
      | None, Some (_, _, _, seq), _ when seq > 0 -> ()
      | None, header, _ ->
          (* A batch before our keys exist can only mean the chain is
             still assembling; the peer's supervisor will retry.  A
             round answers once, at its first part. *)
          let round = match header with Some (_, r, _, _) -> r | None -> 0 in
          send_upstream st
            (Rpc.Status (status st ~round ~stage:"transport" "server not ready"))
      | Some server, None, Rpc.Fetch_drop { dial_round; index } -> (
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
         ("status", Json.Str (if st.server <> None then "ok" else "starting"));
         ("index", Json.Num (float_of_int st.cfg.index));
         ("chain_len", Json.Num (float_of_int st.cfg.deployment.n_servers));
         ("last", Json.Bool (is_last st));
         ("round", Json.Num (float_of_int st.last_round));
         ("hops_done", Json.Num (float_of_int st.hops_done));
         ("upstream_connected", Json.Bool (connected st.upstream));
         ( "downstream_connected",
           Json.Bool
             (Option.fold ~none:false ~some:Remote.connected st.downstream) );
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
      ~on_keys:(fun _ -> ensure_server st)
      ~on_reply:(fun msg ->
        Option.iter (fun server -> handle_downstream st server msg) st.server)
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
        server = None;
        ingress = None;
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
    | None -> ensure_server st (* last server: no suffix *)
    | Some next -> dial_downstream st next);
    Ok st
  end

let server st = st.server

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
  Option.iter Conn.close st.upstream

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
  let jobs = cfg.deployment.jobs in
  let pool = if jobs > 1 then Some (Pool.create ~jobs) else None in
  let result =
    match start tp ?pool ?faults ?log cfg with
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
  in
  Option.iter Pool.shutdown pool;
  result
