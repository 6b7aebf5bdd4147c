(* The dialing end of a chain link; see the interface.

   A link carries one round at a time: the batch leaves as part frames
   and one results frame comes back, so the only asynchrony to handle is
   stale frames, which the owner discards by round number, and a dropped
   connection, which is the link's to answer. *)

module Transport = Vuvuzela_transport.Transport
module Conn = Vuvuzela_transport.Conn
module Evloop = Vuvuzela_transport.Evloop
module Shaper = Vuvuzela_transport.Shaper
module Trace = Vuvuzela_telemetry.Trace
module Telemetry = Vuvuzela_telemetry.Telemetry

let log_src =
  Logs.Src.create "vuvuzela.remote" ~doc:"Coordinator side of a TCP chain"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  tp : Transport.t;
  conn : Conn.t;
  index : int;  (** the dialer's chain position; -1 for the coordinator *)
  telemetry : Telemetry.t option;
  log : string -> unit;
  flap_grace_ms : float;
  on_keys : bytes list -> unit;
  mutable on_reply : Rpc.message -> unit;
  mutable pks : bytes list;
      (** the keys in use, from position [index + 1] on: onions and
          noise are wrapped to them.  [[]] until the first handshake *)
  mutable malformed : bool;  (** a handshake reply was no key list *)
  mutable key_change : string option;
      (** set while the latest handshake announced keys other than
          [pks] *)
  mutable inflight : (Round.kind * int) option;
      (** the round sent down whose reply is still owed *)
  mutable grace : int option;  (** its grace timer, after a drop *)
  mutable chunk : int option;  (** the part size; [None]: one per chunk *)
  mutable dial_kind : Dialing.kind;
  mutable deadline_ms : float option;
  mutable trace_ctx : Trace.context option;
      (** announced to the first hop ahead of the next batch so its hop
          span parents into the coordinator's round root *)
  mutable shut_down : bool;
}

let public_keys t = t.pks
let transport t = t.tp
let key_change t = t.key_change
let set_deadline_ms t d = t.deadline_ms <- d
let set_pipeline t p = t.chunk <- Option.map (max 1) p
let stats t = Transport.stats t.tp
let set_trace_ctx t c = t.trace_ctx <- c
let send t msg = Conn.send t.conn (Rpc.encode msg)
let connected t = Conn.state t.conn = Conn.Established

let settle t =
  t.inflight <- None;
  Option.iter (Evloop.cancel (Transport.loop t.tp)) t.grace;
  t.grace <- None

(* [Conn] re-runs the handshake on every reconnect, and the reply lists
   the keys below again.  A server restarted without its seed announces
   a key nobody wrapped to: every onion of a round would fail to
   authenticate there.  So each reply after the first is compared with
   the keys in use, and a change stands until one announces them
   again. *)
let established t payload =
  match Rpc.decode payload with
  | Ok (Rpc.Chain_info { pks }) when pks <> [] -> (
      if t.pks = [] then begin
        t.pks <- pks;
        t.on_keys pks
      end
      else
        let was = t.key_change in
        t.key_change <-
          Rpc.changed_keys ~first:(t.index + 1) ~in_use:t.pks pks;
        match (was, t.key_change) with
        | None, Some detail ->
            t.log ("handshake: " ^ detail);
            Telemetry.add_counter t.telemetry
              (if t.index < 0 then "vuvuzela_remote_key_changes_total"
               else "vuvuzela_daemon_key_changes_total")
        | Some _, None -> t.log "keys back to those in use"
        | _ -> ())
  | Ok _ | Error _ ->
      t.malformed <- true;
      t.log "handshake reply malformed"

let received t raw =
  match Rpc.decode raw with
  | Error _ -> ()
  | Ok msg ->
      (match (msg, t.inflight) with
      | ( ( Rpc.Conv_results { round; _ }
          | Rpc.Dial_results { round; _ }
          | Rpc.Drop_contents { dial_round = round; _ }
          | Rpc.Status { round; _ } ),
          Some (_, r) )
        when r = round ->
          settle t
      | _ -> ());
      t.on_reply msg

(* The grace rule, the same at every link end: a round in flight when
   the link drops survives if its reply arrives within the grace, and
   is answered with a retryable status when the grace ends. *)
let dropped t =
  t.log "link lost";
  match t.inflight with
  | None -> ()
  | Some (_, round) ->
      let lost () =
        settle t;
        let st =
          Rpc.transport_error ~round ~server:(max 0 t.index)
            ~detail:(Printf.sprintf "link to server %d lost" (t.index + 1))
        in
        t.on_reply (Rpc.Status st)
      in
      if t.flap_grace_ms <= 0. then lost ()
      else if t.grace = None then
        t.grace <-
          Some
            (Evloop.after (Transport.loop t.tp) ~ms:t.flap_grace_ms (fun () ->
                 t.grace <- None;
                 lost ()))

(* The deployment's seed derives each dialed link's jitter streams, so a
   seeded chain replays its redials and emulated delays. *)
let link_of (cfg : Config.t) ~tag =
  let seed what =
    Option.map (fun s -> Printf.sprintf "%s-%s-%s" s what tag) cfg.seed
  in
  let jitter l = Option.fold ~none:l ~some:(fun s -> Shaper.with_seed s l) in
  (seed "backoff", Option.map (fun l -> jitter l (seed "link")) cfg.link)

let dial tp ~index ?telemetry ?backoff_seed ?link ?(flap_grace_ms = 0.) ~log
    ~on_keys ~on_reply ~addr () =
  let rec t =
    lazy
      {
        tp;
        conn =
          Transport.dial tp ~addr ~hello:(Rpc.encode (Rpc.Hello { index }))
            ?backoff_seed ?shaper:link
            ~on_established:(fun _ payload -> established (Lazy.force t) payload)
            ~on_frame:(fun _ raw -> received (Lazy.force t) raw)
            ~on_drop:(fun _ -> dropped (Lazy.force t))
            ();
        index;
        telemetry;
        log;
        flap_grace_ms = Float.max 0. flap_grace_ms;
        on_keys;
        on_reply;
        pks = [];
        malformed = false;
        key_change = None;
        inflight = None;
        grace = None;
        chunk = None;
        dial_kind = Dialing.Plain;
        deadline_ms = None;
        trace_ctx = None;
        shut_down = false;
      }
  in
  Lazy.force t

let start t ~kind ~round =
  settle t;
  t.inflight <- Some (kind, round)

(* The trace context precedes the batch on the same ordered link, so the
   next hop reads it before opening its hop span.  It is a pure control
   frame: digests cover request/reply bytes only, so presence or absence
   cannot perturb the transcript. *)
let send_round t ~kind ~round ~m ?ctx ?(between = ignore) fill =
  start t ~kind ~round;
  Option.iter
    (fun c -> send t (Rpc.Trace_ctx { ctx = Trace.encode_context c }))
    ctx;
  Rpc.send_parts ?chunk:t.chunk
    ~emit:(fun ~seq ~last onions ->
      send t (Rpc.part kind ~round ~m ~seq ~last onions);
      if not last then between ())
    fill

let forward t ~kind ~round ~m ?ctx onions =
  send_round t ~kind ~round ~m ?ctx (fun push -> push onions)

let abort t ~kind ~round =
  if t.inflight = Some (kind, round) then settle t;
  if not t.shut_down then
    send t (Rpc.Abort { round; dialing = Round.is_dialing kind })

let close t =
  settle t;
  Conn.close t.conn

(* ------------------------------------------------------------------ *)
(* The coordinator: a wait on top of the link                          *)
(* ------------------------------------------------------------------ *)

let connect ?transport ?telemetry ?(dial_kind = Dialing.Plain)
    ?(handshake_timeout_ms = 30_000.) ?backoff_seed ?link ?flap_grace_ms
    ~addr () =
  let tp =
    match transport with
    | Some tp -> tp
    | None -> Transport.create ?telemetry ()
  in
  let t =
    dial tp ~index:(-1) ?telemetry ?backoff_seed ?link ?flap_grace_ms
      ~log:(fun m -> Log.warn (fun f -> f "first-hop %s" m))
      ~on_keys:ignore
      ~on_reply:ignore
      ~addr ()
  in
  t.dial_kind <- dial_kind;
  let fail e =
    close t;
    Error e
  in
  if
    not
      (Transport.run_until ~deadline_ms:handshake_timeout_ms tp (fun () ->
           t.pks <> [] || t.malformed))
  then
    fail
      (Printf.sprintf "remote chain at %s: no handshake within %.0f ms"
         (Vuvuzela_transport.Addr.to_string addr)
         handshake_timeout_ms)
  else if t.pks = [] then fail "remote chain: malformed handshake reply"
  else Ok t

let key_change_status t ~round =
  Option.map (fun detail -> Rpc.key_change ~round ~server:0 ~detail) t.key_change

(* Send, then pump until [expect] picks this request's reply out of
   the frames coming back ([None] for anything stale).  The deadline
   runs on the loop's clock from the moment the request starts to
   leave, whatever frames arrive in the meantime; a reply that comes
   back after it (a stall inside a dispatch skips past it) misses it
   too.  An in-process loop that goes idle can never bring a reply. *)
let exchange t ~round ~expect request =
  let outcome = ref None in
  t.on_reply <- (fun msg -> if !outcome = None then outcome := expect msg);
  let t0 = Transport.now_ms t.tp in
  request ();
  ignore
    (Transport.run_until
       ?deadline_ms:
         (Option.map (fun d -> d -. (Transport.now_ms t.tp -. t0)) t.deadline_ms)
       t.tp
       (fun () -> !outcome <> None));
  t.on_reply <- ignore;
  let elapsed = Transport.now_ms t.tp -. t0 in
  match (!outcome, t.deadline_ms) with
  | Some _, Some d when elapsed > d ->
      Error (Rpc.deadline_exceeded ~round ~deadline_ms:(Some d))
  | Some outcome, _ ->
      Transport.publish t.tp;
      outcome
  | None, Some d when elapsed >= d ->
      Error (Rpc.deadline_exceeded ~round ~deadline_ms:(Some d))
  | None, _ -> Error (Rpc.deadline_exceeded ~round ~deadline_ms:None)

let round_streamed t ~kind ~m ~round ~produce =
  let refused =
    if t.shut_down then Some (Rpc.chain_shutdown ~round)
    else key_change_status t ~round
  in
  match refused with
  | Some st -> Error st
  | None -> (
      let expected =
        Entry.request_len ~chain_len:(List.length t.pks) ~dial_kind:t.dial_kind
          kind
      in
      let outcome =
        exchange t ~round
          ~expect:(fun msg ->
            match (kind, msg) with
            | Round.Conversation, Rpc.Conv_results { round = r; replies }
            | Round.Dialing, Rpc.Dial_results { round = r; replies }
              when r = round ->
                Some (Ok replies)
            | _, Rpc.Status st when st.Rpc.round = round -> Some (Error st)
            | _ -> None)
          (fun () ->
            (* The coordinator holds at most two chunks of onions: parts
               leave as soon as the next one exists, and between parts
               the socket is drained so the first hop peels early parts
               while the producer is still wrapping later ones. *)
            send_round t ~kind ~round ~m ?ctx:t.trace_ctx
              ~between:(fun () -> Transport.run_once ~max_wait_ms:0. t.tp)
              (fun push ->
                produce (fun chunk -> push (Entry.normalize ~expected chunk))))
      in
      (* A reconnect mid-round to a first hop with a new key: whatever
         came back crossed a server that could peel none of it. *)
      match key_change_status t ~round with
      | Some st -> Error st
      | None -> outcome)

let conversation_round_streamed t ~round ~produce =
  round_streamed t ~kind:Round.Conversation ~m:0 ~round ~produce

let dialing_round_streamed t ~round ~m ~produce =
  round_streamed t ~kind:Round.Dialing ~m ~round ~produce

let fetch_invitations t ~dial_round ~index =
  if t.shut_down then []
  else
    match
      exchange t ~round:dial_round
        ~expect:(function
          | Rpc.Drop_contents { dial_round = r; index = i; invitations }
            when r = dial_round && i = index ->
              Some (Ok invitations)
          | Rpc.Status st when st.Rpc.round = dial_round -> Some (Error st)
          | _ -> None)
        (fun () ->
          start t ~kind:Round.Dialing ~round:dial_round;
          send t (Rpc.Fetch_drop { dial_round; index }))
    with
    | Ok invitations -> invitations
    | Error _ -> []

let shutdown t =
  if not t.shut_down then begin
    t.shut_down <- true;
    send t Rpc.Bye;
    (* Give the Bye a beat to reach the wire before tearing down. *)
    for _ = 1 to 5 do
      Transport.run_once ~max_wait_ms:2. t.tp
    done;
    close t
  end
