(* Coordinator-side remote chain; see the interface.

   One round at a time: the batch leaves as part frames and one results
   frame comes back, so the only asynchrony to handle is stale frames: a
   results frame for a round the supervisor already abandoned (it timed
   out, aborted, retried) can still arrive and must be discarded by
   round number, or it would be taken for the retry's results. *)

module Transport = Vuvuzela_transport.Transport
module Trace = Vuvuzela_telemetry.Trace
module Telemetry = Vuvuzela_telemetry.Telemetry

let log_src =
  Logs.Src.create "vuvuzela.remote" ~doc:"Coordinator side of a TCP chain"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  tp : Transport.t;
  client : Transport.client;
  pks : bytes list;  (** the keys in use: clients wrap onions to them *)
  telemetry : Telemetry.t option;
  mutable handshake : bytes;  (** the reply [key_change] was read from *)
  mutable key_change : string option;
      (** set while the latest handshake announced keys other than
          [pks]: rounds fail with {!Rpc.key_change} *)
  dial_kind : Dialing.kind;
  mutable deadline_ms : float option;
  mutable pipeline : int option;
      (** [Some chunk]: no part leaving for server 0 holds more than
          [chunk] onions, so it peels while the rest of the batch is
          still crossing the wire; [None]: one part per producer chunk *)
  flap_grace_ms : float;
      (** on a mid-round drop, keep pumping this long for the healed
          link to re-deliver the reply (the daemon's outbox holds it) *)
  mutable trace_ctx : Trace.context option;
      (** announced to the first hop ahead of the next batch so its hop
          span parents into the coordinator's round root *)
  mutable shut_down : bool;
}

let length t = List.length t.pks
let public_keys t = t.pks
let set_deadline_ms t d = t.deadline_ms <- d
let set_pipeline t p = t.pipeline <- Option.map (max 1) p
let stats t = Transport.stats t.tp
let set_trace_ctx t c = t.trace_ctx <- c

let connect ?telemetry ?(dial_kind = Dialing.Plain)
    ?(handshake_timeout_ms = 30_000.) ?backoff_seed ?link
    ?(flap_grace_ms = 0.) ~addr () =
  let tp = Transport.create ?telemetry () in
  let client =
    Transport.connect tp ~addr ~hello:(Rpc.encode (Rpc.Hello { index = -1 }))
      ?backoff_seed ?shaper:link ()
  in
  match Transport.handshake ~deadline_ms:handshake_timeout_ms tp client with
  | Error `Timeout ->
      Transport.close_client tp client;
      Error
        (Printf.sprintf "remote chain at %s: no handshake within %.0f ms"
           (Vuvuzela_transport.Addr.to_string addr)
           handshake_timeout_ms)
  | Ok payload -> (
      match Rpc.decode payload with
      | Ok (Rpc.Chain_info { pks }) when pks <> [] ->
          Ok
            {
              tp;
              client;
              pks;
              telemetry;
              handshake = payload;
              key_change = None;
              dial_kind;
              deadline_ms = None;
              pipeline = None;
              flap_grace_ms = Float.max 0. flap_grace_ms;
              trace_ctx = None;
              shut_down = false;
            }
      | Ok _ | Error _ ->
          Transport.close_client tp client;
          Error "remote chain: malformed handshake reply")

(* The transport re-runs the handshake on every reconnect, and the first
   hop's reply lists the chain's keys again.  A first hop restarted
   without its seed announces a key nobody wrapped to: every onion of a
   round would fail to authenticate there.  So each new reply is
   compared with the keys in use, and a change fails rounds until one
   announces them again. *)
let check_keys t =
  match Transport.last_handshake t.client with
  | Some payload when payload != t.handshake -> (
      t.handshake <- payload;
      match Rpc.decode payload with
      | Ok (Rpc.Chain_info { pks }) -> (
          let was = t.key_change in
          t.key_change <- Rpc.changed_keys ~first:0 ~in_use:t.pks pks;
          match (was, t.key_change) with
          | None, Some detail ->
              Log.warn (fun m -> m "first-hop handshake: %s" detail);
              Telemetry.add_counter t.telemetry
                "vuvuzela_remote_key_changes_total"
          | _ -> ())
      | Ok _ | Error _ -> ())
  | _ -> ()

let key_change_status t ~round =
  check_keys t;
  Option.map (fun detail -> Rpc.key_change ~round ~server:0 ~detail) t.key_change

(* The trace context precedes the batch on the same ordered link, so
   the first hop reads it before opening its hop span.  It is a pure
   control frame: digests cover request/reply bytes only, so presence
   or absence cannot perturb the transcript. *)
let send_trace_ctx t =
  match t.trace_ctx with
  | Some c ->
      Transport.send_batch t.client
        (Rpc.encode (Rpc.Trace_ctx { ctx = Trace.encode_context c }))
  | None -> ()

(* Pump until the matching reply.  [expect] filters: [Some] for the
   reply (or a status) of *this* round, [None] for anything stale. *)
let await_reply t ~round ~expect =
  let grace_ms = if t.flap_grace_ms > 0. then Some t.flap_grace_ms else None in
  let rec await () =
    match Transport.recv_batch ?deadline_ms:t.deadline_ms ?grace_ms t.tp t.client with
    | Error `Timeout ->
        Error
          (Rpc.transport_error ~round ~server:0
             ~detail:
               (Printf.sprintf "no reply within %.0f ms"
                  (Option.value ~default:0. t.deadline_ms)))
    | Error `Dropped ->
        Error
          (Rpc.transport_error ~round ~server:0
             ~detail:"connection to first hop lost")
    | Ok payload -> (
        match Rpc.decode payload with
        | Error _ -> await () (* unparseable frame: skip, keep waiting *)
        | Ok msg -> (
            match expect msg with
            | Some outcome ->
                Transport.publish t.tp;
                outcome
            | None -> await ()))
  in
  await ()

let round_streamed t ~kind ~m ~round ~produce =
  let refused =
    if t.shut_down then Some (Rpc.chain_shutdown ~round)
    else key_change_status t ~round
  in
  match refused with
  | Some st -> Error st
  | None -> (
      let expected =
        Entry.request_len ~chain_len:(length t) ~dial_kind:t.dial_kind kind
      in
      send_trace_ctx t;
      (* The coordinator holds at most two chunks of onions: parts leave
         as soon as the next one exists, and between parts the socket is
         drained so the first hop peels early parts while the producer is
         still wrapping later ones. *)
      Rpc.send_parts ?chunk:t.pipeline
        ~emit:(fun ~seq ~last onions ->
          Transport.send_batch t.client
            (Rpc.encode (Rpc.part kind ~round ~m ~seq ~last onions));
          if not last then Transport.run_once ~max_wait_ms:0. t.tp)
        (fun push ->
          produce (fun chunk -> push (Entry.normalize ~expected chunk)));
      let outcome =
        await_reply t ~round ~expect:(fun msg ->
            match (kind, msg) with
            | Round.Conversation, Rpc.Conv_results { round = r; replies }
            | Round.Dialing, Rpc.Dial_results { round = r; replies }
              when r = round ->
                Some (Ok replies)
            | _, Rpc.Status st when st.Rpc.round = round -> Some (Error st)
            | _ -> None)
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

let conversation_round t ~round requests =
  conversation_round_streamed t ~round ~produce:(fun feed -> feed requests)

let dialing_round t ~round ~m requests =
  dialing_round_streamed t ~round ~m ~produce:(fun feed -> feed requests)

let abort t ~kind ~round =
  if not t.shut_down then
    Transport.send_batch t.client
      (Rpc.encode (Rpc.Abort { round; dialing = Round.is_dialing kind }))

let fetch_invitations t ~dial_round ~index =
  if t.shut_down then []
  else begin
    Transport.send_batch t.client
      (Rpc.encode (Rpc.Fetch_drop { dial_round; index }));
    match
      await_reply t ~round:dial_round ~expect:(function
        | Rpc.Drop_contents { dial_round = r; index = i; invitations }
          when r = dial_round && i = index -> Some (Ok invitations)
        | Rpc.Status st when st.Rpc.round = dial_round -> Some (Error st)
        | _ -> None)
    with
    | Ok invitations -> invitations
    | Error _ -> []
  end

let shutdown t =
  if not t.shut_down then begin
    t.shut_down <- true;
    Transport.send_batch t.client (Rpc.encode Rpc.Bye);
    (* Give the Bye a beat to reach the wire before tearing down. *)
    for _ = 1 to 5 do
      Transport.run_once ~max_wait_ms:2. t.tp
    done;
    Transport.close_client t.tp t.client
  end
