(* The full Vuvuzela client state machine.

   Responsibilities (§3, §7, §9):
   - send a fixed number of fixed-size conversation requests every round
     — [max_conversations] of them (§9 "Multiple conversations": "the
     client should pick a maximum number of conversations a priori, and
     always send that many conversation protocol exchange messages per
     round"), filling unused slots with indistinguishable fakes;
   - queue user text per conversation and deliver it reliably and in
     order over the lossy round abstraction ("Vuvuzela deals with these
     issues through retransmission at a higher level (in the client
     itself)", §3.1) — a go-back-style scheme with a configurable
     pipeline window (§8.3: "clients can pipeline conversation
     messages");
   - participate in every dialing round, sending a real invitation or a
     no-op;
   - scan downloaded invitation drops and surface incoming calls. *)

open Vuvuzela_crypto

type event =
  | Delivered of { peer : bytes; text : string }
      (** an in-order message from a conversation partner *)
  | Acked of { peer : bytes; seq : int }
      (** our message [seq] to [peer] was received *)
  | Incoming_call of { caller : bytes; certificate : Certificate.t option }
      (** [certificate] is present (but not yet verified!) in certified
          deployments; check it with {!Certificate.verify} before
          trusting the caller's claimed identity *)
  | Round_failed of { round : int; dialing : bool; status : Rpc.status }
      (** the round this client submitted a request to was aborted; the
          supervisor will retry (or has given up — see the report) *)
  | Round_late of { round : int; next_round : int; dialing : bool }
      (** this client's request missed the round's admission window; the
          entry server excluded it and what it carried was requeued for
          [next_round] *)

type unacked = { seq : int; text : string; mutable last_sent : int }

type conv_state = {
  session : Conversation.session;
  cpeer : bytes;
  mutable next_seq : int;
  mutable inflight : unacked list;  (** oldest first *)
  outgoing : string Queue.t;
  mutable recv_next : int;  (** next expected seq from the peer *)
  reorder : (int, string) Hashtbl.t;
}

type slot_ctx = {
  secrets : bytes array;
  conv : conv_state option;  (** conversation bound to this slot *)
  fake : Conversation.session option;
}

type stats = {
  mutable rounds : int;
  mutable data_sent : int;
  mutable retransmissions : int;
  mutable data_received : int;
  mutable duplicates : int;
  mutable dial_rounds : int;
  mutable invitations_scanned : int;
}

(* Configuration for certified dialing (§9): the client's signing
   identity, display name, and how many dialing rounds each issued
   certificate stays valid. *)
type certified_config = {
  signing_sk : bytes;
  name : string;
  validity : int;
}

type t = {
  identity : Types.identity;
  server_pks : bytes list;
  rng : Drbg.t;
  window : int;
  rtt : int;  (** rounds to wait before retransmitting (>= 2) *)
  max_conversations : int;
  dial_kind : Dialing.kind;
  certified : certified_config option;
  mutable convs : conv_state list;  (** oldest first; length <= max *)
  mutable pending_dial : bytes option;
  mutable last_dial : (int * bytes) option;
      (** the dialing round our latest real invitation went into, and
          its callee — so an aborted dialing round can requeue it *)
  pending_rounds : (int * int, slot_ctx) Hashtbl.t;  (** (round, slot) *)
  pending_dial_rounds : (int, bytes array) Hashtbl.t;
      (** dial_round → reply secrets, for confirming the chain's ack *)
  stats : stats;
}

let create ?seed ?(window = 4) ?(rtt = 2) ?(max_conversations = 1) ?dial_kind
    ?certified ~identity ~server_pks () =
  if window < 1 then invalid_arg "Client.create: window must be >= 1";
  if rtt < 2 then invalid_arg "Client.create: rtt must be >= 2";
  if max_conversations < 1 then
    invalid_arg "Client.create: max_conversations must be >= 1";
  let rng =
    match seed with
    | Some s -> Drbg.of_string s
    | None -> Drbg.create_system ()
  in
  {
    identity;
    server_pks;
    rng;
    window;
    rtt;
    max_conversations;
    (* The deployment's invitation format; a client that can issue
       certificates implies Certified, but a certificate-less client can
       still live in (receive calls and idle within) a certified
       deployment. *)
    dial_kind =
      (match (dial_kind, certified) with
      | Some k, _ -> k
      | None, Some _ -> Dialing.Certified
      | None, None -> Dialing.Plain);
    certified;
    convs = [];
    pending_dial = None;
    last_dial = None;
    pending_rounds = Hashtbl.create 8;
    pending_dial_rounds = Hashtbl.create 8;
    stats =
      {
        rounds = 0;
        data_sent = 0;
        retransmissions = 0;
        data_received = 0;
        duplicates = 0;
        dial_rounds = 0;
        invitations_scanned = 0;
      };
  }

let identity t = t.identity
let public_key t = t.identity.Types.public
let stats t = t.stats
let peers t = List.map (fun c -> c.cpeer) t.convs

let find_conv t peer_pk =
  List.find_opt (fun c -> Bytes.equal c.cpeer peer_pk) t.convs

(* ------------------------------------------------------------------ *)
(* Conversation management                                             *)
(* ------------------------------------------------------------------ *)

(* Enter a conversation.  An existing conversation with the same peer is
   restarted; at capacity the oldest conversation is ended to make room
   (§5: "a user may end one conversation to make room for another"). *)
let start_conversation t ~peer_pk =
  let fresh =
    {
      session = Conversation.derive ~identity:t.identity ~peer_pk;
      cpeer = peer_pk;
      next_seq = 1;
      inflight = [];
      outgoing = Queue.create ();
      recv_next = 1;
      reorder = Hashtbl.create 8;
    }
  in
  let without = List.filter (fun c -> not (Bytes.equal c.cpeer peer_pk)) t.convs in
  let trimmed =
    if List.length without >= t.max_conversations then List.tl without
    else without
  in
  t.convs <- trimmed @ [ fresh ]

let end_conversation ?peer t =
  match peer with
  | None -> t.convs <- []
  | Some pk ->
      t.convs <- List.filter (fun c -> not (Bytes.equal c.cpeer pk)) t.convs

let send_to t ~peer text =
  if String.length text > Types.text_capacity then
    invalid_arg
      (Printf.sprintf "Client.send: text exceeds %d bytes" Types.text_capacity);
  match find_conv t peer with
  | None -> invalid_arg "Client.send: no conversation with that peer"
  | Some c -> Queue.push text c.outgoing

let send t text =
  match t.convs with
  | [] -> invalid_arg "Client.send: no active conversation"
  | [ c ] -> send_to t ~peer:c.cpeer text
  | _ ->
      invalid_arg
        "Client.send: multiple conversations active; use send_to"

let queued ?peer t =
  let count c = Queue.length c.outgoing + List.length c.inflight in
  match peer with
  | Some pk -> ( match find_conv t pk with None -> 0 | Some c -> count c)
  | None -> List.fold_left (fun acc c -> acc + count c) 0 t.convs

(* ------------------------------------------------------------------ *)
(* Conversation rounds                                                 *)
(* ------------------------------------------------------------------ *)

(* Pick this round's message for one conversation: first retransmit
   anything overdue, else send the next fresh text if the window allows,
   else cover. *)
let compose_message t c ~round =
  let ack = c.recv_next - 1 in
  let overdue =
    List.find_opt (fun u -> round - u.last_sent >= t.rtt) c.inflight
  in
  match overdue with
  | Some u ->
      u.last_sent <- round;
      t.stats.retransmissions <- t.stats.retransmissions + 1;
      Message.Data { seq = u.seq; ack; text = u.text }
  | None ->
      if List.length c.inflight < t.window && not (Queue.is_empty c.outgoing)
      then begin
        let text = Queue.pop c.outgoing in
        let seq = c.next_seq in
        c.next_seq <- seq + 1;
        c.inflight <- c.inflight @ [ { seq; text; last_sent = round } ];
        t.stats.data_sent <- t.stats.data_sent + 1;
        Message.Data { seq; ack; text }
      end
      else Message.Empty { ack }

(* Contexts for rounds whose replies never arrived (lost on the network
   or suppressed by an adversary) would otherwise accumulate forever. *)
let gc_pending t ~round =
  if Hashtbl.length t.pending_rounds > 4 * t.max_conversations * 64 then
    Hashtbl.iter
      (fun ((r, _) as key) _ ->
        if r < round - 64 then Hashtbl.remove t.pending_rounds key)
      (Hashtbl.copy t.pending_rounds)

(* Algorithm 1, steps 1-2: build this round's onion-wrapped requests,
   exactly [max_conversations] of them. *)
let conversation_requests t ~round =
  t.stats.rounds <- t.stats.rounds + 1;
  gc_pending t ~round;
  List.init t.max_conversations (fun slot ->
      let payload, conv, fake =
        match List.nth_opt t.convs slot with
        | Some c ->
            let msg = compose_message t c ~round in
            (Conversation.exchange_payload c.session ~round msg, Some c, None)
        | None ->
            (* Step 1b: fake request via a random public key. *)
            let session = Conversation.fake ~rng:t.rng ~identity:t.identity () in
            let msg = Message.Empty { ack = 0 } in
            ( Conversation.exchange_payload session ~round msg,
              None,
              Some session )
      in
      let wrapped =
        Vuvuzela_mixnet.Onion.wrap ~rng:t.rng ~server_pks:t.server_pks ~round
          payload
      in
      Hashtbl.replace t.pending_rounds (round, slot)
        { secrets = wrapped.secrets; conv; fake };
      wrapped.onion)

(* Process an ack from the peer: everything <= ack is delivered. *)
let process_ack c ~ack =
  let acked, live = List.partition (fun u -> u.seq <= ack) c.inflight in
  c.inflight <- live;
  List.map (fun u -> Acked { peer = c.cpeer; seq = u.seq }) acked

(* Process incoming data: deliver in order, buffering ahead-of-order
   arrivals (possible when a retransmitted message overtakes a gap). *)
let process_data t c ~seq ~text =
  if seq < c.recv_next then begin
    t.stats.duplicates <- t.stats.duplicates + 1;
    []
  end
  else begin
    Hashtbl.replace c.reorder seq text;
    let delivered = ref [] in
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt c.reorder c.recv_next with
      | Some txt ->
          Hashtbl.remove c.reorder c.recv_next;
          delivered := Delivered { peer = c.cpeer; text = txt } :: !delivered;
          t.stats.data_received <- t.stats.data_received + 1;
          c.recv_next <- c.recv_next + 1
      | None -> continue := false
    done;
    List.rev !delivered
  end

(* Algorithm 1, step 3: unwrap one slot's reply and surface events. *)
let handle_slot_reply t ~round ~slot reply =
  match Hashtbl.find_opt t.pending_rounds (round, slot) with
  | None -> []
  | Some ctx -> (
      Hashtbl.remove t.pending_rounds (round, slot);
      match
        Vuvuzela_mixnet.Onion.unwrap_reply ~secrets:ctx.secrets ~round reply
      with
      | None -> []
      | Some result -> (
          match ctx.conv with
          | None ->
              (* Idle slot: attempt the read anyway so timing stays
                 uniform; it can never succeed. *)
              (match ctx.fake with
              | Some session ->
                  ignore (Conversation.read_result session ~round result)
              | None -> ());
              []
          | Some c -> (
              (* The conversation may have ended or restarted since. *)
              match find_conv t c.cpeer with
              | Some current when current == c -> (
                  match Conversation.read_result c.session ~round result with
                  | None -> []
                  | Some (Message.Empty { ack }) -> process_ack c ~ack
                  | Some (Message.Data { seq; ack; text }) ->
                      let acks = process_ack c ~ack in
                      acks @ process_data t c ~seq ~text)
              | _ -> [])))

let handle_conversation_replies t ~round replies =
  List.concat (List.mapi (fun slot r -> handle_slot_reply t ~round ~slot r) replies)

(* ------------------------------------------------------------------ *)
(* Dialing rounds                                                      *)
(* ------------------------------------------------------------------ *)

let dial t ~callee_pk = t.pending_dial <- Some callee_pk

(* Build this dialing round's request (a real invitation or a no-op) and
   wrap it for the chain. *)
let dialing_request t ~dial_round ~m =
  t.stats.dial_rounds <- t.stats.dial_rounds + 1;
  let payload =
    match t.pending_dial with
    | Some callee_pk -> (
        t.pending_dial <- None;
        t.last_dial <- Some (dial_round, callee_pk);
        match (t.dial_kind, t.certified) with
        | Dialing.Certified, None ->
            invalid_arg
              "Client.dialing_request: certified deployment requires a \
               signing identity to dial"
        | Dialing.Plain, _ ->
            Dialing.invite ~rng:t.rng ~identity:t.identity ~callee_pk ~m ()
        | Dialing.Certified, Some cc ->
            (* Fresh self-signed certificate per dial, expiring after
               [validity] dialing rounds. *)
            let cert =
              Certificate.self_signed ~signing_sk:cc.signing_sk
                ~conversation_pk:t.identity.Types.public ~name:cc.name
                ~expires:(dial_round + cc.validity)
            in
            Dialing.invite_certified ~rng:t.rng ~identity:t.identity ~cert
              ~callee_pk ~m ())
    | None -> Dialing.noop ~rng:t.rng ~kind:t.dial_kind ()
  in
  let wrapped =
    Vuvuzela_mixnet.Onion.wrap ~rng:t.rng ~server_pks:t.server_pks
      ~round:dial_round payload
  in
  (* Keep the reply secrets so the chain's fixed-size ack can be
     confirmed when it comes back.  Unconfirmed entries (lost acks)
     would otherwise accumulate forever. *)
  if Hashtbl.length t.pending_dial_rounds > 64 then
    Hashtbl.iter
      (fun r _ ->
        if r < dial_round - 64 then Hashtbl.remove t.pending_dial_rounds r)
      (Hashtbl.copy t.pending_dial_rounds);
  Hashtbl.replace t.pending_dial_rounds dial_round
    wrapped.Vuvuzela_mixnet.Onion.secrets;
  wrapped.Vuvuzela_mixnet.Onion.onion

(* The chain acks every dialing request with the same fixed plaintext,
   sealed per-layer like any reply; a confirmed ack tells the client its
   invitation (or no-op) survived every hop. *)
let dial_ack_plaintext = Bytes.make Types.dial_result_len '\x01'

let confirm_dial_ack t ~dial_round ack =
  match Hashtbl.find_opt t.pending_dial_rounds dial_round with
  | None -> false
  | Some secrets -> (
      Hashtbl.remove t.pending_dial_rounds dial_round;
      match
        Vuvuzela_mixnet.Onion.unwrap_reply ~secrets ~round:dial_round ack
      with
      | Some result -> Bytes.equal result dial_ack_plaintext
      | None -> false)

let my_invitation_drop t ~m = Dialing.my_drop ~identity:t.identity ~m

(* ------------------------------------------------------------------ *)
(* Round aborts                                                        *)
(* ------------------------------------------------------------------ *)

(* A conversation round died in the chain: no reply is coming, so the
   per-slot contexts are garbage.  Drop them — the reply secrets were
   for onions that never completed the round trip and must never be
   reused — and mark anything first sent in that round as immediately
   overdue, so the retry round's [compose_message] retransmits it
   (inside a fresh onion with fresh ephemeral keys) instead of waiting a
   full RTT. *)
let abort_round t ~round =
  for slot = 0 to t.max_conversations - 1 do
    Hashtbl.remove t.pending_rounds (round, slot)
  done;
  List.iter
    (fun c ->
      List.iter
        (fun u -> if u.last_sent = round then u.last_sent <- round - t.rtt)
        c.inflight)
    t.convs

(* A dialing round died: forget its ack secrets, and if our invitation
   went into it, requeue the callee so the next dialing round re-sends a
   fresh invitation (never the stored onion). *)
let abort_dial_round t ~dial_round =
  Hashtbl.remove t.pending_dial_rounds dial_round;
  match t.last_dial with
  | Some (r, callee_pk) when r = dial_round ->
      t.last_dial <- None;
      if t.pending_dial = None then t.pending_dial <- Some callee_pk
  | _ -> ()

(* Scan a downloaded invitation drop; surface each caller exactly once.
   In certified deployments the (unverified) certificate rides along on
   the event for the application's trust policy.  A caller whose key
   derives no session (a low-order key) is dropped here, so answering a
   call never reaches [start_conversation]'s refusal. *)
let handle_invitations t invitations =
  t.stats.invitations_scanned <-
    t.stats.invitations_scanned + List.length invitations;
  let callable caller = Conversation.accepts ~identity:t.identity ~peer_pk:caller in
  match t.dial_kind with
  | Dialing.Plain ->
      Dialing.scan ~identity:t.identity invitations
      |> List.filter callable
      |> List.map (fun caller -> Incoming_call { caller; certificate = None })
  | Dialing.Certified ->
      Dialing.scan_certified ~identity:t.identity invitations
      |> List.filter (fun (caller, _) -> callable caller)
      |> List.map (fun (caller, cert) ->
             Incoming_call { caller; certificate = Some cert })
