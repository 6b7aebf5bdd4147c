(* A complete in-process Vuvuzela deployment: chain of servers, entry
   server, client population, and the round clock.

   This is the functional (real-crypto) counterpart of the performance
   simulator in [vuvuzela_sim]: every byte that would cross the network
   in a deployment is actually constructed, encrypted, shuffled and
   decrypted here.  Tests, the examples, and the attack harness all run
   against this module.

   Both constructors run every round, abort and invitation download
   through the coordinator's [Remote]: in process it dials the
   in-memory chain of daemons ([Chain]), over TCP the first
   [vuvuzela-server] process.

   Fault handling: the coordinator is a round supervisor.  A round that
   fails — a typed [Rpc.status] from any link (crash, dropped or
   corrupted frame) or a deadline miss — is aborted everywhere: servers
   discard the round's state (the retry redraws noise), clients discard
   the round's reply secrets and requeue what it carried.  The retry
   runs under a fresh round number and clients rebuild their requests
   from scratch, so fresh ephemeral keys are drawn and no onion
   ciphertext ever crosses a link twice (re-submitting a stored onion
   would let the §2.1 adversary correlate attempts).  Retries are
   bounded by [max_retries]; a round that still fails is reported with
   its full abort history and per-client [Round_failed] events.

   [run ~blocked] additionally models the active network adversary
   of §2.1 ("block network traffic from Alice") by suppressing chosen
   clients' requests for a round. *)

open Vuvuzela_dp
module Telemetry = Vuvuzela_telemetry.Telemetry
module Trace = Vuvuzela_telemetry.Trace
module Ledger = Vuvuzela_telemetry.Ledger
module Drbg = Vuvuzela_crypto.Drbg
module Shaper = Vuvuzela_transport.Shaper
module Transport = Vuvuzela_transport.Transport
module Config = Config

type t = {
  remote : Remote.t;  (** the link every round crosses, in either tier *)
  local : Chain.t option;
      (** the in-process chain behind [remote] ([None] over TCP), for
          [chain], [jobs], [shutdown] and §5.4 auto-tuning: the wire
          protocol does not carry the last server's [proposed_m] *)
  tel : Telemetry.t option;
      (** shared with the chain and its servers; [None] is the nil sink *)
  clients : (bytes, Client.t) Hashtbl.t;  (** keyed by public key *)
  mutable order : Client.t list;  (** connection order, for determinism *)
  mutable round : int;
  mutable dial_round : int;
  mutable m : int;  (** invitation drops for the next dialing round *)
  mutable auto_tune_m : bool;
  dial_kind : Dialing.kind;
  entry_chunk : int;  (** onions per entry chunk *)
  max_retries : int;  (** extra attempts after the first *)
  admission_rng : Drbg.t;
      (** arrival-latency draws for the admission check, derived from
          the deployment seed so admission outcomes replay *)
  mutable admission_ms : float option;
      (** entry-server admission window; [None] admits everyone *)
  client_latency : (float * float) option;
      (** [(base_ms, jitter_ms)] emulated client → entry arrival *)
  mutable m_history : (int * int) list;
      (** completed dialing rounds and their [m], newest first, bounded
          by the last server's invitation retention — the download
          catch-up schedule for clients that missed rounds *)
  last_fetched : (bytes, int) Hashtbl.t;
      (** per client: the newest dialing round whose drops it has
          downloaded (or predates) *)
  obs : Obs.t option;
      (** the [--obs-dir] collector: one event per round, scrape +
          trace merge + digest at shutdown *)
}

(* The privacy-budget ledger composes the deployment's actual per-round
   guarantees (Theorem 1 for conversations, §6.5 for dialing) under
   Theorem 2, per client, per *attempt* — each attempt publishes a
   fresh noise draw. *)
(* Admission draws come from their own DRBG stream (domain-separated
   from keys/noise/shuffles) so turning the admission window on or off
   never perturbs the rest of a seeded deployment. *)
let admission_rng_of (cfg : Config.t) =
  match cfg.seed with
  | Some s -> Drbg.of_string (s ^ "-admission")
  | None -> Drbg.create_system ()

(* The observability collector is best-effort infrastructure: a
   directory that cannot be created costs the collection, not the
   deployment. *)
let obs_of (cfg : Config.t) =
  match cfg.obs_dir with
  | None -> None
  | Some dir -> (
      match Obs.create ~dir ~scrape:cfg.obs_scrape () with
      | Ok obs -> Some obs
      | Error e ->
          Printf.eprintf "[vuvuzela] %s (observability disabled)\n%!" e;
          None)

let install_ledger (cfg : Config.t) =
  Option.iter
    (fun tel ->
      Telemetry.set_ledger tel
        (Ledger.create ?warn_eps:cfg.budget_warn
           ~conv:(Mechanism.conversation cfg.noise)
           ~dial:(Mechanism.dialing cfg.dial_noise) ()))
    cfg.telemetry

(* Hedged deadline (§WAN): an emulated link adds a predictable RTT to
   every round, so the effective deadline is the configured one widened
   by the link's round-trip budget across the chain's hops — a shaped
   link costs latency without being misread as a failure, while a link
   that is genuinely stuck still trips the (widened) deadline. *)
let hedged_deadline_ms (cfg : Config.t) ~hops =
  Option.map
    (fun d ->
      match cfg.link with
      | Some link -> d +. Shaper.rtt_budget_ms link ~hops
      | None -> d)
    cfg.round_deadline_ms

(* The one constructor behind both tiers: the remote bounds each round
   by the (hedged) deadline, so a silently dead link surfaces as a
   retryable status instead of blocking forever. *)
let make (cfg : Config.t) ?local remote =
  install_ledger cfg;
  Remote.set_deadline_ms remote
    (hedged_deadline_ms cfg ~hops:(List.length (Remote.public_keys remote)));
  {
    remote;
    local;
    entry_chunk = max 1 cfg.pipeline_chunk;
    admission_rng = admission_rng_of cfg;
    admission_ms = cfg.admission_ms;
    client_latency = cfg.client_latency;
    tel = cfg.telemetry;
    clients = Hashtbl.create 64;
    order = [];
    round = 1;
    dial_round = 1;
    m = 1;
    auto_tune_m = false;
    dial_kind = cfg.dial_kind;
    max_retries = max 0 cfg.max_retries;
    m_history = [];
    last_fetched = Hashtbl.create 64;
    obs = obs_of cfg;
  }

let of_config (cfg : Config.t) =
  let chain = Chain.of_config cfg in
  make cfg ~local:chain (Chain.remote chain)

(* The coordinator of a multi-process deployment: same clients, same
   supervisor, but rounds cross a TCP connection to server 0.  [noise]
   and [dial_noise] only feed the privacy-budget ledger here (the
   daemons own the actual noise) — pass the daemons' parameters or the
   ledger composes the wrong guarantee.  With [pipeline] set, no part
   leaving the coordinator holds more than [pipeline_chunk] onions. *)
let of_config_tcp (cfg : Config.t) ~addr =
  (* The coordinator → first-hop link gets the same WAN profile the
     daemons put on their inter-server links, with its own derived
     jitter seed, plus deterministic reconnect backoff under a seed. *)
  let backoff_seed, link = Remote.link_of cfg ~tag:"coordinator" in
  Remote.connect ?telemetry:cfg.telemetry ~dial_kind:cfg.dial_kind
    ~handshake_timeout_ms:cfg.handshake_timeout_ms ?backoff_seed ?link
    ~flap_grace_ms:cfg.flap_grace_ms ~addr ()
  |> Result.map (fun remote ->
         Remote.set_pipeline remote (Config.part_chunk cfg);
         make cfg remote)

let chain t =
  match t.local with
  | Some c -> c
  | None -> invalid_arg "Network.chain: TCP deployment has no in-process chain"

let is_remote t = t.local = None
let jobs t = match t.local with Some c -> Chain.jobs c | None -> 1

let shutdown t =
  (* Finalize observability first: the scrape needs the daemons still
     answering, so it must precede the Bye cascade. *)
  Option.iter (fun obs -> Obs.finalize ?telemetry:t.tel obs) t.obs;
  match t.local with
  | Some c -> Chain.shutdown c
  | None -> Remote.shutdown t.remote

let chain_length t = List.length (Remote.public_keys t.remote)

(* The per-round root span ([conv-round] / [dial-round]): the
   coordinator wraps the round trip and announces the span's context to
   the first hop ahead of the batch, so every daemon's hop span parents
   into it — directly in process, where all share one tracer, and at
   merge time over TCP. *)
let round_root t ~kind ~round f =
  match t.tel with
  | None -> f ()
  | Some tel ->
      let dialing = Round.is_dialing kind in
      let name = if dialing then "dial-round" else "conv-round" in
      let tr = Telemetry.trace tel in
      let span = Trace.begin_span tr ~name ~round ~dialing () in
      Remote.set_trace_ctx t.remote (Some (Trace.context_of tr span));
      Fun.protect
        ~finally:(fun () ->
          Remote.set_trace_ctx t.remote None;
          Trace.end_span tr span)
        f

let round t = t.round
let dial_round t = t.dial_round
let set_invitation_drops t m = t.m <- max 1 m
let set_auto_tune_drops t flag = t.auto_tune_m <- flag
let invitation_drops t = t.m
let entry_chunk t = t.entry_chunk
let set_admission_ms t w = t.admission_ms <- w

let connect ?seed ?window ?rtt ?max_conversations ?certified t =
  let identity =
    match seed with
    | Some s -> Types.identity_of_seed (Bytes.of_string ("id-" ^ s))
    | None -> Types.fresh_identity ()
  in
  let client =
    Client.create ?seed ?window ?rtt ?max_conversations
      ~dial_kind:t.dial_kind ?certified ~identity
      ~server_pks:(Remote.public_keys t.remote) ()
  in
  Hashtbl.replace t.clients identity.Types.public client;
  t.order <- client :: t.order;
  (* A new client has nothing to catch up on: its download history
     starts at the most recently completed dialing round. *)
  Hashtbl.replace t.last_fetched identity.Types.public (t.dial_round - 1);
  client

let clients t = List.rev t.order
let find_client t pk = Hashtbl.find_opt t.clients pk

(* What one round did, beyond the per-client events: enough for a
   coordinator (or a test) to account for load and spot failures without
   re-deriving anything. *)
type round_report = {
  round : int;  (** the round number of the last attempt *)
  dialing : bool;
  events : (Client.t * Client.event list) list;
      (** per participating client, in connection order; on a failed
          report these are the [Round_failed] notifications *)
  batch_size : int;
      (** requests the admitted clients built for the last attempt *)
  peak_buffered : int;
      (** most onions the entry server held at once: at most
          [entry_chunk]; [0] when the attempt failed before intake *)
  admitted : int;
      (** clients inside the last attempt's admission window (= all
          participants when no window is configured) *)
  late : int;
      (** clients the last attempt excluded as stragglers: their
          requests arrived after the round closed, and what they carried
          was requeued *)
  wire_bytes : int;
      (** batch bytes on the entry → first-server link: items plus one
          batch header, whatever the part framing *)
  elapsed_ms : float;
      (** every attempt's round trip on the loop clock, summed: wall
          time plus skipped virtual time; the clients' build is not in
          it *)
  confirmed_acks : int;
      (** dialing rounds: acks that unwrapped to the expected fixed
          plaintext; [0] for conversation rounds *)
  attempts : int;  (** total attempts, [1] when nothing failed *)
  aborts : Rpc.status list;
      (** each failed attempt's status, in order; on a report that
          ultimately succeeded the last entry is the abort the
          successful retry recovered from *)
  failure : Rpc.status option;
      (** set iff the round ultimately failed (= last element of
          [aborts]); the real events of the round were lost *)
}

(* Failed reports carry only [Round_failed] notifications, not protocol
   events, so flattening skips them; [failures_of] is the other half. *)
let events_of reports =
  List.concat_map
    (fun r -> if r.failure = None then r.events else [])
    reports

let failures_of reports = List.filter_map (fun r -> r.failure) reports

(* One stable line per report, success or failure — machine-grepable:
   every field appears in every line, in the same order, so log
   consumers need exactly one format.  Pinned by a regression test. *)
let pp_round_report ppf r =
  Format.fprintf ppf
    "%s round %d%s: %d requests (peak %d buffered), %d B wire, %.1f ms%s, \
     attempts=%d, aborts=%d, admitted=%d, late=%d%a"
    (if r.dialing then "dialing" else "conv")
    r.round
    (if r.failure = None then "" else " FAILED")
    r.batch_size r.peak_buffered r.wire_bytes r.elapsed_ms
    (if r.dialing then Printf.sprintf ", %d acks" r.confirmed_acks else "")
    r.attempts
    (List.length r.aborts)
    r.admitted r.late
    (fun ppf -> function
      | None -> ()
      | Some st -> Format.fprintf ppf " (%a)" Rpc.pp_status st)
    r.failure

(* [f]'s result, its wall-clock ms, and its ms on the remote's loop
   clock: the wall time plus whatever the loop skipped meanwhile (the
   in-process chain's stalls, graces and redials). *)
let timed t f =
  let tp = Remote.transport t.remote in
  let skipped = Transport.skipped_ms tp in
  let v, wall_ms = Vuvuzela_transport.Clock.timed f in
  (v, wall_ms, wall_ms +. (Transport.skipped_ms tp -. skipped))

(* One conversation round for the whole deployment, supervised.  Clients
   in [blocked] stay silent (adversarial blocking or a flaky link).
   Each client submits [max_conversations] requests (one slot each, §9).

   Each attempt consumes a fresh round number and rebuilds every request
   from scratch — fresh ephemeral keys, fresh noise — so a failed
   attempt leaks nothing that links it to the retry. *)
(* Per-attempt bookkeeping shared by the two supervisors: one charge per
   participant (each attempt publishes a fresh noise draw), budget
   gauges refreshed, attempt counted. *)
let charge_attempt t ~participants ~dialing =
  match t.tel with
  | None -> ()
  | Some _ ->
      List.iter
        (fun c ->
          Telemetry.charge t.tel ~client:(Client.public_key c) ~dialing)
        participants;
      Telemetry.refresh_budget t.tel;
      Telemetry.add_counter t.tel
        ~labels:[ ("kind", if dialing then "dial" else "conv") ]
        "vuvuzela_round_attempts_total"

(* Latency metrics record the *wall* time only: time the in-process
   loop skipped (injected stalls, graces) lives in [elapsed_ms], and
   injected stall also in its own counter
   ([vuvuzela_injected_delay_ms_total]). *)
let observe_attempt t ~dialing ~wall_ms ~wire_bytes =
  match t.tel with
  | None -> ()
  | Some _ ->
      let kind = [ ("kind", if dialing then "dial" else "conv") ] in
      Telemetry.observe t.tel ~labels:kind "vuvuzela_round_ms" wall_ms;
      Telemetry.add_counter t.tel ~labels:kind
        ~by:(float_of_int wire_bytes) "vuvuzela_wire_bytes_total"

let count_outcome t ~dialing outcome =
  match t.tel with
  | None -> ()
  | Some _ ->
      Telemetry.add_counter t.tel
        ~labels:[ ("kind", if dialing then "dial" else "conv") ]
        (match outcome with
        | `Completed -> "vuvuzela_rounds_total"
        | `Retried -> "vuvuzela_round_retries_total"
        | `Failed -> "vuvuzela_round_failures_total")

(* Layer (b) of the WAN story: round admission.  The entry server no
   longer freezes the round on an all-or-nothing barrier — clients
   "arrive" under an emulated last-mile latency, and whoever misses the
   [admission_ms] window is excluded from this round and redirected to
   the next one.  One arrival draw per participant, in connection
   order, from the dedicated admission DRBG stream, so a seeded
   deployment replays the same admission outcome bit for bit.  [late]
   (tests, attack harnesses) forces chosen clients late regardless of
   their draw; the draw still happens so the stream stays aligned. *)
let admission_split t ~late_pred ~participants =
  let arrival () =
    match (t.admission_ms, t.client_latency) with
    | Some _, Some (base, jitter) ->
        Some
          (base
          +.
          if jitter > 0. then
            Drbg.float_unit ~rng:t.admission_rng () *. jitter
          else 0.)
    | _ -> None
  in
  let rec go admitted late = function
    | [] -> (List.rev admitted, List.rev late)
    | c :: rest ->
        let drawn_late =
          match (arrival (), t.admission_ms) with
          | Some a, Some window -> a > window
          | _ -> false
        in
        let forced = match late_pred with Some f -> f c | None -> false in
        if drawn_late || forced then go admitted (c :: late) rest
        else go (c :: admitted) late rest
  in
  go [] [] participants

let observe_admission t ~dialing ~admitted ~late =
  match t.tel with
  | None -> ()
  | Some _ ->
      let kind = [ ("kind", if dialing then "dial" else "conv") ] in
      Telemetry.set_gauge t.tel ~labels:kind "vuvuzela_admitted_clients"
        (float_of_int admitted);
      if late > 0 then
        Telemetry.add_counter t.tel ~labels:kind ~by:(float_of_int late)
          "vuvuzela_late_onions_total"

(* One observability event per completed round report (success or
   failure), carrying the ledger's worst-case cumulative spend so the
   event log doubles as the privacy-budget curve. *)
let record_obs t (r : round_report) =
  match t.obs with
  | None -> ()
  | Some obs ->
      let budget =
        Option.bind t.tel (fun tel ->
            Option.map
              (fun l ->
                let g = Ledger.worst l in
                (g.Mechanism.eps, g.Mechanism.delta))
              (Telemetry.ledger tel))
      in
      Obs.record_round obs
        ~kind:(if r.dialing then "dial" else "conv")
        ~round:r.round ~attempts:r.attempts ~batch:r.batch_size
        ~admitted:r.admitted ~late:r.late ~wire_bytes:r.wire_bytes
        ~elapsed_ms:r.elapsed_ms ~acks:r.confirmed_acks
        ~aborts:(List.map (Format.asprintf "%a" Rpc.pp_status) r.aborts)
        ~failed:(r.failure <> None) ?budget ()

(* Batch bytes on the entry → first-server link, for the reports: the
   items plus one batch header (part framing adds 5 bytes per part). *)
let wire_bytes t (kind : Round.kind) ~count =
  let item_len =
    Entry.request_len ~chain_len:(chain_length t) ~dial_kind:t.dial_kind kind
  in
  match kind with
  | Round.Conversation -> Rpc.conv_batch_bytes ~count ~item_len
  | Round.Dialing -> Rpc.dial_batch_bytes ~count ~item_len

(* A first hop that is hostile or confused can answer with the wrong
   number of results; routing them back would be a crash, so it is a
   failed (and retryable) attempt like any other link fault. *)
let check_results ~kind ~round ~batch_size = function
  | Ok results when Array.length results <> batch_size ->
      Error
        {
          Rpc.round;
          server = 0;
          stage = Rpc.stage kind "results";
          detail =
            Printf.sprintf "%d results for a batch of %d"
              (Array.length results) batch_size;
        }
  | outcome -> outcome

(* The attempt loop shared by both round kinds: bump the round counter,
   split the participants at the admission window, charge the ledger
   (admitted only — stragglers publish nothing, and the redrawn noise
   of the retried/naturally-next round covers them), build every
   participant's requests, time the round trip that streams the
   admitted ones through the entry server (the remote answers a missed
   deadline), and either finish or abort + retry (bounded, and only for
   retryable statuses).  The two kinds plug in their per-client request builder,
   requeue and success handler; [kind] selects the chain call and the
   abort, so the supervisor proper exists exactly once. *)
let supervise t ~kind ~m ~late_pred ~participants ~next_round ~build ~requeue
    ~finish =
  let dialing = Round.is_dialing kind in
  let aborts = ref [] in
  (* Every attempt's round trip on the loop clock, the failed ones'
     graces and deadlines included. *)
  let spent_ms = ref 0. in
  let rec attempt n =
    let round = next_round () in
    let admitted, stragglers = admission_split t ~late_pred ~participants in
    charge_attempt t ~participants:admitted ~dialing;
    observe_admission t ~dialing ~admitted:(List.length admitted)
      ~late:(List.length stragglers);
    (* Clients build their requests before the round, as real clients
       do (§7).  Stragglers build too — they sent, only too late — so
       every participant's client state moves the same way; theirs are
       turned away below. *)
    let requests =
      Telemetry.span t.tel ~name:"client-build" ~round ~dialing (fun () ->
          let requests = List.concat_map (build ~round) admitted in
          List.iter (fun c -> ignore (build ~round c)) stragglers;
          requests)
    in
    let ids = Array.of_list (List.map fst requests) in
    let batch_size = Array.length ids in
    (* The timed window is the chain's alone: the [produce] hook streams
       the built requests through one {!Entry} collector whose sink is
       the chain's chunk feed, so the entry tier never holds more than
       [entry_chunk] onions while server 0 peels earlier chunks. *)
    let peak = ref 0 in
    let outcome, wall_ms, elapsed_ms =
      timed t (fun () ->
          round_root t ~kind ~round (fun () ->
              Remote.round_streamed t.remote ~kind ~m ~round
                ~produce:(fun feed ->
                  let entry =
                    Entry.create_streaming ~round ~chunk:t.entry_chunk
                      ~sink:feed ()
                  in
                  List.iter
                    (fun (id, r) ->
                      ignore (Entry.submit entry id r : Entry.submit_status))
                    requests;
                  ignore (Entry.close_stream entry : _ array);
                  peak := Entry.peak_buffered entry)))
    in
    (* Stragglers arrived after the round closed: onions are
       round-keyed, so joining a sealed round is impossible.  What they
       carried is requeued, and they are told to re-wrap for the next
       round, as {!Entry.submit} answers a request past the close. *)
    let late_events =
      List.map
        (fun c ->
          requeue c ~round;
          (c, [ Client.Round_late { round; next_round = round + 1; dialing } ]))
        stragglers
    in
    spent_ms := !spent_ms +. elapsed_ms;
    let peak_buffered = !peak in
    let wire_bytes = wire_bytes t kind ~count:batch_size in
    observe_attempt t ~dialing ~wall_ms ~wire_bytes;
    let report failure ~confirmed_acks events =
      { round; dialing; events; batch_size; peak_buffered;
        admitted = List.length admitted; late = List.length stragglers;
        wire_bytes; elapsed_ms = !spent_ms; confirmed_acks; attempts = n;
        aborts = List.rev !aborts; failure }
    in
    match check_results ~kind ~round ~batch_size outcome with
    | Error st ->
        (* Abort everywhere: servers drop the round's state (noise is
           redrawn on retry), admitted clients drop its reply secrets
           and requeue what the round carried.  Stragglers were already
           requeued above. *)
        Remote.abort t.remote ~kind ~round;
        List.iter (fun c -> requeue c ~round) admitted;
        aborts := st :: !aborts;
        if n <= t.max_retries && Rpc.retryable st then begin
          count_outcome t ~dialing `Retried;
          attempt (n + 1)
        end
        else begin
          count_outcome t ~dialing `Failed;
          report (Some st) ~confirmed_acks:0
            (List.map
               (fun c ->
                 (c, [ Client.Round_failed { round; dialing; status = st } ]))
               admitted
            @ late_events)
        end
    | Ok results ->
        count_outcome t ~dialing `Completed;
        let confirmed_acks, events = finish ~round ~ids results in
        report None ~confirmed_acks (events @ late_events)
  in
  let r = attempt 1 in
  record_obs t r;
  r

let run_conversation ?late ~participants (t : t) =
  supervise t ~kind:Round.Conversation ~m:0 ~late_pred:late ~participants
    ~next_round:(fun () ->
      let round = t.round in
      t.round <- round + 1;
      round)
    ~build:(fun ~round c ->
      List.mapi
        (fun slot onion -> ((Client.public_key c, slot), onion))
        (Client.conversation_requests c ~round))
    ~requeue:(fun c ~round -> Client.abort_round c ~round)
    ~finish:(fun ~round ~ids results ->
      (* Group each client's slot replies back together, in slot order. *)
      let by_client = Hashtbl.create 64 in
      List.iter
        (fun ((pk, slot), reply) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_client pk) in
          Hashtbl.replace by_client pk ((slot, reply) :: prev))
        (Entry.demux ~ids results);
      ( 0,
        Telemetry.span t.tel ~name:"client-decrypt" ~round (fun () ->
            List.filter_map
              (fun c ->
                let pk = Client.public_key c in
                match Hashtbl.find_opt by_client pk with
                | None -> None
                | Some slot_replies ->
                    let replies =
                      List.sort compare slot_replies |> List.map snd
                    in
                    Some (c, Client.handle_conversation_replies c ~round replies))
              participants) ))

(* The download/scan phase of a dialing round (unmixed; §5.5), straight
   from the last server: as in the paper's prototype, no CDN stands in
   between (the simulator prices one).  A client downloads every
   completed dialing round it has not seen yet (each with that round's
   own [m]), so a client that was blocked across dialing rounds still
   receives its invitations once it participates again. *)
let download_invitations t c =
  let pk = Client.public_key c in
  let upto = t.dial_round - 1 in
  let from =
    match Hashtbl.find_opt t.last_fetched pk with
    | Some r -> r + 1
    | None -> upto
  in
  let events = ref [] in
  for r = from to upto do
    match List.assoc_opt r t.m_history with
    | None -> ()  (* aborted round, or older than the retention window *)
    | Some m ->
        let index = Client.my_invitation_drop c ~m in
        let drop = Remote.fetch_invitations t.remote ~dial_round:r ~index in
        events := !events @ Client.handle_invitations c drop
  done;
  Hashtbl.replace t.last_fetched pk upto;
  !events

(* One dialing round, supervised like a conversation round: every participating
   client sends an invitation or no-op, confirms the chain's ack, then
   downloads and scans the invitation drops it has not seen yet.  An
   aborted attempt requeues each client's invitation (the retry builds a
   fresh one) and discards the last server's partial invitation store. *)
let run_dialing ?late ~participants (t : t) =
  let m = t.m in
  supervise t ~kind:Round.Dialing ~m ~late_pred:late ~participants
    ~next_round:(fun () ->
      let dial_round = t.dial_round in
      t.dial_round <- dial_round + 1;
      dial_round)
    ~build:(fun ~round c ->
      [ (Client.public_key c, Client.dialing_request c ~dial_round:round ~m) ])
    ~requeue:(fun c ~round -> Client.abort_dial_round c ~dial_round:round)
    ~finish:(fun ~round ~ids acks ->
      (* Route each slot's ack back to its client; a confirmed ack
         means that request survived every hop. *)
      let confirmed_acks =
        Telemetry.span t.tel ~name:"client-decrypt" ~round ~dialing:true
          (fun () ->
            List.fold_left
              (fun n (pk, ack) ->
                match Hashtbl.find_opt t.clients pk with
                | Some c when Client.confirm_dial_ack c ~dial_round:round ack
                  -> n + 1
                | Some _ | None -> n)
              0
              (Entry.demux ~ids acks))
      in
      (* §5.4: adopt the last server's m recommendation for the next
         round.  The wire protocol does not carry [proposed_m], so a
         TCP deployment keeps its configured m. *)
      (match t.local with
      | Some c when t.auto_tune_m -> t.m <- max 1 (Chain.proposed_m c)
      | _ -> ());
      (* Only completed rounds enter the download schedule; the bound
         matches the last server's invitation retention. *)
      t.m_history <-
        (round, m)
        :: List.filteri
             (fun i _ -> i < Server.invitation_history - 1)
             t.m_history;
      ( confirmed_acks,
        List.filter_map
          (fun c ->
            match download_invitations t c with
            | [] -> None
            | events -> Some (c, events))
          participants ))

(* The one round entry point: both protocols run under the same
   supervisor, selected by {!Round.kind}. *)
let run ?(blocked = fun _ -> false) ?late ~kind (t : t) =
  let participants = List.filter (fun c -> not (blocked c)) (clients t) in
  match (kind : Round.kind) with
  | Round.Conversation -> run_conversation ?late ~participants t
  | Round.Dialing -> run_dialing ?late ~participants t

(* Convenience: run n conversation rounds, collecting the reports. *)
let run_rounds ?blocked ?late t n =
  List.init n (fun _ -> run ?blocked ?late ~kind:Round.Conversation t)
