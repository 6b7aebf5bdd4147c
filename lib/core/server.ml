(* A Vuvuzela chain server (Algorithm 2).

   Mixing servers (every position but the last) peel one onion layer,
   inject cover traffic, shuffle, and forward; on the way back they
   unshuffle, discard their own noise, and seal replies.  The last server
   hosts the dead drops: it peels the final layer, matches exchanges, and
   seals results.

   The same object also implements the dialing round (§5): mixing servers
   add per-drop noise invitations; the last server files invitations into
   the invitation store that clients later download from. *)

open Vuvuzela_crypto
open Vuvuzela_dp
open Vuvuzela_mixnet
module Pool = Vuvuzela_parallel.Pool
module Telemetry = Vuvuzela_telemetry.Telemetry

let log_src = Logs.Src.create "vuvuzela.server" ~doc:"Vuvuzela chain server"

module Log = (val Logs.src_log log_src : Logs.LOG)

type slot = Valid of { index : int; secret : bytes } | Invalid
(* [index] is the request's position in this server's outgoing batch
   before shuffling. *)

type round_state = {
  slots : slot array;  (** one per incoming request *)
  perm : Shuffle.permutation;  (** over the outgoing batch *)
  n_forwarded : int;
  reply_payload_len : int;  (** result size arriving from downstream *)
}

type metrics = {
  mutable requests_in : int;
  mutable invalid_requests : int;
  mutable duplicate_requests : int;
  mutable noise_singles : int;
  mutable noise_pairs : int;
  mutable noise_invitations : int;
  mutable rounds : int;
}

type t = {
  cfg : Config.t;
  position : int;  (** 0-based index in the chain *)
  secret : bytes;
  public : bytes;
  suffix_pks : bytes list;  (** public keys of the downstream servers *)
  pool : Pool.t option;  (** [None] ⇒ sequential *)
  rng : Drbg.t;
  conv_rounds : (int, round_state) Hashtbl.t;
  dial_rounds : (int, round_state) Hashtbl.t;
  drops : Deaddrop.t;  (** last server only *)
  mutable invitations : (int * Deaddrop.Invitation.store) list;
      (** last server only; newest round first, at most
          [invitation_history] rounds so briefly-blocked clients can
          catch up on missed downloads *)
  mutable last_histogram : Deaddrop.histogram option;
      (** instrumentation: what a compromised last server observes *)
  mutable proposed_m : int;
      (** last server's §5.4 recommendation for the next dialing round *)
  metrics : metrics;
  tel : Telemetry.t option;
      (** the deployment's telemetry sink; [None] is the nil sink *)
}

let create ?pool (cfg : Config.t) ~position ~suffix_pks =
  let rng =
    match cfg.seed with
    | Some seed ->
        Drbg.create
          ~seed:(Bytes.of_string (Printf.sprintf "%s-server-%d" seed position))
    | None -> Drbg.create_system ()
  in
  let secret, public = Drbg.keypair ~rng () in
  if position < 0 || position >= cfg.n_servers then
    invalid_arg "Server.create: bad position";
  if List.length suffix_pks <> cfg.n_servers - position - 1 then
    invalid_arg "Server.create: suffix length mismatch";
  {
    cfg;
    position;
    secret;
    public;
    suffix_pks;
    pool;
    rng;
    conv_rounds = Hashtbl.create 8;
    dial_rounds = Hashtbl.create 8;
    drops = Deaddrop.create ~shards:cfg.deaddrop_shards ();
    invitations = [];
    last_histogram = None;
    proposed_m = 1;
    metrics =
      {
        requests_in = 0;
        invalid_requests = 0;
        duplicate_requests = 0;
        noise_singles = 0;
        noise_pairs = 0;
        noise_invitations = 0;
        rounds = 0;
      };
    tel = cfg.telemetry;
  }

let public_key t = t.public

(* Fan a pure per-item function out over the pool (sequential when the
   server runs with jobs = 1).  The combinators write slot [i] of the
   output from slot [i] of the input, so results are bit-identical to
   [Array.mapi] at any job count; all RNG draws, metrics, and table
   updates stay on the coordinating domain. *)
let par_mapi t f a =
  match t.pool with Some p -> Pool.mapi_array p f a | None -> Array.mapi f a

(* The same, for an [f] over a whole pool chunk: one call per chunk. *)
let par_chunks t f a =
  match t.pool with Some p -> Pool.map_chunks p f a | None -> f a

let proposed_m t = t.proposed_m

(* How many past dialing rounds' invitation stores the last server keeps
   on hand, so a briefly-blocked client can still download the drops it
   missed once it reconnects. *)
let invitation_history = 8
let is_last t = t.position = t.cfg.n_servers - 1
let metrics t = t.metrics
let last_histogram t = t.last_histogram

(* Number of downstream servers (those that still add reply layers under
   this server's results). *)
let downstream t = t.cfg.n_servers - t.position - 1

(* ------------------------------------------------------------------ *)
(* Streaming peel                                                      *)
(* ------------------------------------------------------------------ *)

(* A round's ingress is a stream: the relay feeds the batch in
   contiguous parts as they come off the wire, and the expensive peel
   happens per part — so this server overlaps its DH + AEAD work with
   the upstream server still producing the rest of the batch.  A relay
   that does not pipeline feeds a single part.

   Determinism: chunks arrive in slot order on one ordered link, the
   dedup table and valid-index counter persist across feeds, and the
   peel itself is a pure per-onion function — so the final (slots,
   inners) pair is byte-identical to peeling the whole batch at once,
   at any chunk size and any job count. *)
type stream = {
  s_round : int;
  s_dialing : bool;
  s_expected_len : int;
  s_seen : (bytes, unit) Hashtbl.t;
      (** layer secrets peeled so far: dedup across the whole round *)
  mutable s_slots_rev : slot list;
  mutable s_inners_rev : bytes list;
  mutable s_n_valid : int;
  mutable s_n_in : int;
}

(* Expected request size arriving at this server: the payload plus one
   onion layer per remaining server. *)
let conv_request_len t =
  Onion.request_size
    ~chain_len:(t.cfg.n_servers - t.position)
    ~payload_len:Types.exchange_payload_len

let dial_request_len t =
  Onion.request_size
    ~chain_len:(t.cfg.n_servers - t.position)
    ~payload_len:(Dialing.payload_len t.cfg.dial_kind)

let make_stream ~round ~dialing ~expected_len =
  {
    s_round = round;
    s_dialing = dialing;
    s_expected_len = expected_len;
    s_seen = Hashtbl.create 64;
    s_slots_rev = [];
    s_inners_rev = [];
    s_n_valid = 0;
    s_n_in = 0;
  }

let conv_stream t ~round =
  make_stream ~round ~dialing:false ~expected_len:(conv_request_len t)

let dial_stream t ~round =
  make_stream ~round ~dialing:true ~expected_len:(dial_request_len t)

let stream t ~(kind : Round.kind) ~round =
  match kind with
  | Round.Conversation -> conv_stream t ~round
  | Round.Dialing -> dial_stream t ~round

(* Peel one chunk of the round's ingress.

   Two ingress defenses keep a request out of the mix:

   - size uniformity ([expected_len]): a wrong-sized request is dropped
     unpeeled; it could otherwise be traced by its size through every
     hop;
   - deduplication: a request whose layer secret an earlier request of
     the round (the table spans chunks) already produced is dropped.
     Without this, an adversary who replays a victim's onion makes her
     dead drop receive three accesses — m_more is observable and NOT
     covered by the (m1, m2) noise, so replay would reveal that the
     victim is in a conversation.  Comparing onion bytes is not
     enough: each onion has 16 encodings of its ephemeral key that peel
     to the same inner onion under the same secret (see
     {!Onion.peel_many}), and a server that forwarded two of them would
     show the next hop which two of its outputs match.  Two honest
     onions never share a secret. *)
let stream_feed t st (onions : bytes array) =
  Telemetry.stage t.tel ~name:"peel" ~round:st.s_round
    ~server:t.position ~dialing:st.s_dialing
  @@ fun () ->
  (* Pass 1 (coordinator): the size check. *)
  let to_peel = ref [] in
  let sized =
    Array.map
      (fun onion ->
        let ok = Bytes.length onion = st.s_expected_len in
        if ok then to_peel := onion :: !to_peel;
        ok)
      onions
  in
  (* Pass 2 (fan-out): the expensive DH + AEAD peel of the right-sized
     onions, pure per onion, one batch (one field inversion) per pool
     chunk. *)
  let peeled =
    par_chunks t
      (Onion.peel_many ~server_sk:t.secret ~round:st.s_round)
      (Array.of_list (List.rev !to_peel))
  in
  (* Pass 3 (coordinator): dedup, assign batch indices and count, in
     slot order, sharing the round's table: the first onion to produce
     a secret peels, later ones are duplicates. *)
  let next = ref 0 in
  Array.iter
    (fun sized ->
      let result =
        if sized then begin
          let r = peeled.(!next) in
          incr next;
          r
        end
        else None
      in
      match result with
      | Some (_, secret) when Hashtbl.mem st.s_seen secret ->
          t.metrics.duplicate_requests <- t.metrics.duplicate_requests + 1;
          st.s_slots_rev <- Invalid :: st.s_slots_rev
      | Some (inner, secret) ->
          Hashtbl.replace st.s_seen secret ();
          st.s_slots_rev <-
            Valid { index = st.s_n_valid; secret } :: st.s_slots_rev;
          st.s_n_valid <- st.s_n_valid + 1;
          st.s_inners_rev <- inner :: st.s_inners_rev
      | None ->
          t.metrics.invalid_requests <- t.metrics.invalid_requests + 1;
          st.s_slots_rev <- Invalid :: st.s_slots_rev)
    sized;
  st.s_n_in <- st.s_n_in + Array.length onions;
  t.metrics.requests_in <- t.metrics.requests_in + Array.length onions;
  match t.tel with
  | None -> ()
  | Some _ ->
      let server = [ ("server", string_of_int t.position) ] in
      Telemetry.add_counter t.tel ~labels:server
        ~by:(float_of_int (Array.length onions))
        "vuvuzela_requests_total"

(* Materialize the accumulated ingress in slot order. *)
let stream_collect t st =
  let slots = Array.of_list (List.rev st.s_slots_rev) in
  let inners = Array.of_list (List.rev st.s_inners_rev) in
  (match t.tel with
  | None -> ()
  | Some _ ->
      let bad = st.s_n_in - st.s_n_valid in
      if bad > 0 then
        Telemetry.add_counter t.tel
          ~labels:[ ("server", string_of_int t.position) ]
          ~by:(float_of_int bad) "vuvuzela_rejected_requests_total");
  (slots, inners)


(* Noise is planned in two stages so its crypto can fan out: the
   coordinator draws every random input (payload bytes, a noise
   invitation's [Dialing.draw], per-layer ephemeral secrets — in
   exactly the order that building and wrapping one noise onion at a
   time would consume the DRBG), then each pool chunk builds its
   invitations' keys ([Dialing.noise_invitations]) and wraps its onions
   ([Onion.wrap_many]), one batch, and so one field inversion, each.  A
   spec is one pending noise onion: its ephemeral secrets, drawn after
   its payload, and the payload. *)
let noise_spec t payload =
  ( Onion.draw_eph_sks ~rng:t.rng ~chain_len:(List.length t.suffix_pks) (),
    payload )

(* Wrap a chunk of planned noise for the downstream chain, exactly as
   client requests arriving at the next server look. *)
let wrap_noise t ~round specs =
  Array.map
    (fun (w : Onion.wrapped) -> w.onion)
    (Onion.wrap_many ~server_pks:t.suffix_pks ~round specs)

let shuffle_and_record t table ~round ~slots ~reply_payload_len batch =
  let perm = Shuffle.random_permutation ~rng:t.rng (Array.length batch) in
  Hashtbl.replace table round
    { slots; perm; n_forwarded = Array.length batch; reply_payload_len };
  t.metrics.rounds <- t.metrics.rounds + 1;
  Shuffle.apply perm batch

(* Seal one reply per incoming slot, the [reseal] stage of every
   position and kind: a valid slot seals [payload index] under its
   request's layer secret, an invalid slot gets a dummy of the same size
   so batch alignment and sizes stay uniform.  Dummies consume the DRBG
   in slot order on the coordinator (sealing draws nothing, so the
   stream matches one interleaved loop); the AEAD seals then fan out. *)
let reseal t ~round ~dialing ~payload_len slots payload =
  Telemetry.stage t.tel ~name:"reseal" ~round ~server:t.position ~dialing
  @@ fun () ->
  let dummy_len = payload_len + Onion.reply_overhead in
  let dummies =
    Array.map
      (function
        | Valid _ -> Bytes.empty | Invalid -> Drbg.generate t.rng dummy_len)
      slots
  in
  par_mapi t
    (fun i -> function
      | Valid { index; secret } ->
          Onion.seal_reply ~secret ~round (payload index)
      | Invalid -> dummies.(i))
    slots

(* Backward pass common to both protocols: unshuffle, keep the first
   [n_valid] results (ours; noise occupied the tail), reseal. *)
let unshuffle_and_reply t table ~round ~dialing (results : bytes array) =
  match Hashtbl.find_opt table round with
  | None -> invalid_arg "Server: backward pass for unknown round"
  | Some st ->
      Hashtbl.remove table round;
      if Array.length results <> st.n_forwarded then
        invalid_arg "Server: result batch size mismatch";
      let unshuffled =
        Telemetry.stage t.tel ~name:"unpeel" ~round ~server:t.position
          ~dialing (fun () -> Shuffle.unapply st.perm results)
      in
      reseal t ~round ~dialing ~payload_len:st.reply_payload_len st.slots
        (Array.get unshuffled)

(* ------------------------------------------------------------------ *)
(* Conversation protocol                                               *)
(* ------------------------------------------------------------------ *)

(* A noise exchange payload: random dead drop, random "sealed" bytes
   (real sealed messages are uniformly distributed, so uniform bytes are
   indistinguishable). *)
let noise_exchange_payload ?(drop = None) t =
  let drop_id =
    match drop with Some d -> d | None -> Drbg.generate t.rng Types.drop_id_len
  in
  Bytes_util.concat
    [ drop_id; Drbg.generate t.rng Types.sealed_message_len ]

(* Cover traffic (Algorithm 2 step 2): ⌈n1⌉ single accesses and ⌈n2/2⌉
   paired accesses, wrapped for the downstream chain. *)
let conv_noise t ~round =
  let plan = Noise.conversation ~rng:t.rng ~mode:t.cfg.noise_mode t.cfg.noise in
  t.metrics.noise_singles <- t.metrics.noise_singles + plan.singles;
  t.metrics.noise_pairs <- t.metrics.noise_pairs + plan.pairs;
  Telemetry.add_counter t.tel
    ~labels:[ ("kind", "single") ]
    ~by:(float_of_int plan.singles) "vuvuzela_noise_onions_total";
  Telemetry.add_counter t.tel
    ~labels:[ ("kind", "pair") ]
    ~by:(float_of_int (2 * plan.pairs))
    "vuvuzela_noise_onions_total";
  let out = ref [] in
  for _ = 1 to plan.singles do
    out := noise_spec t (noise_exchange_payload t) :: !out
  done;
  for _ = 1 to plan.pairs do
    let drop = Drbg.generate t.rng Types.drop_id_len in
    out := noise_spec t (noise_exchange_payload ~drop:(Some drop) t) :: !out;
    out := noise_spec t (noise_exchange_payload ~drop:(Some drop) t) :: !out
  done;
  par_chunks t (wrap_noise t ~round) (Array.of_list !out)

(* Forward pass of a mixing server, either kind: peel (already done,
   chunk by chunk, by [stream_feed]), add the kind's noise
   ([make_noise]), shuffle, and record the round in [table] for the
   backward pass, whose results are [result_len] bytes at the last
   server.  The stage spans
   ([noise]/[shuffle], plus a zero-duration [exchange] marker — mixing
   servers host no dead drops) wrap the work without reordering it: each
   thunk runs exactly once, in place, so the DRBG stream is identical
   with telemetry on or off, pipelined or not. *)
let finish_forward t st table ~result_len make_noise =
  let round = st.s_round and dialing = st.s_dialing in
  let pos = t.position in
  let slots, inners = stream_collect t st in
  let noise =
    Telemetry.stage t.tel ~name:"noise" ~round ~server:pos ~dialing (fun () ->
        make_noise ~round)
  in
  Telemetry.mark t.tel ~name:"exchange" ~round ~server:pos ~dialing ();
  Log.debug (fun m ->
      m "server %d: %s round %d fwd: %d in, %d valid, %d noise"
        t.position
        (if dialing then "dial" else "conv")
        round st.s_n_in (Array.length inners) (Array.length noise));
  let reply_payload_len = result_len + (Onion.reply_overhead * downstream t) in
  Telemetry.stage t.tel ~name:"shuffle" ~round ~server:pos ~dialing (fun () ->
      shuffle_and_record t table ~round ~slots ~reply_payload_len
        (Array.append inners noise))

let conv_finish_forward t st =
  if is_last t then invalid_arg "Server.conv_finish_forward: last server";
  if st.s_dialing then
    invalid_arg "Server.conv_finish_forward: dialing stream";
  finish_forward t st t.conv_rounds ~result_len:Types.exchange_result_len
    (conv_noise t)

let conv_backward t ~round results =
  unshuffle_and_reply t t.conv_rounds ~round ~dialing:false results

(* The last server: dead-drop matching over the streamed ingress, record
   the observable histogram, seal results (Algorithm 2 steps 3b/4). *)
let conv_finish_exchange t st =
  if not (is_last t) then
    invalid_arg "Server.conv_finish_exchange: not last server";
  if st.s_dialing then
    invalid_arg "Server.conv_finish_exchange: dialing stream";
  let round = st.s_round in
  let pos = t.position in
  let slots, inners = stream_collect t st in
  (* The last server adds no conversation noise and never shuffles (its
     output goes straight back up); zero-duration markers keep stage
     coverage total for every (round, server) pair. *)
  Telemetry.mark t.tel ~name:"noise" ~round ~server:pos ();
  Telemetry.mark t.tel ~name:"shuffle" ~round ~server:pos ();
  let results =
    Telemetry.stage t.tel ~name:"exchange" ~round ~server:pos (fun () ->
        Deaddrop.clear t.drops;
        Array.iteri
          (fun slot payload ->
            if Bytes.length payload = Types.exchange_payload_len then begin
              let drop_id = Bytes.sub payload 0 Types.drop_id_len in
              let sealed =
                Bytes.sub payload Types.drop_id_len Types.sealed_message_len
              in
              Deaddrop.put t.drops ~slot ~drop_id ~sealed
            end)
          inners;
        t.last_histogram <- Some (Deaddrop.histogram t.drops);
        t.metrics.rounds <- t.metrics.rounds + 1;
        Deaddrop.resolve ?pool:t.pool t.drops
          ~n_slots:(Array.length inners))
  in
  Log.debug (fun m ->
      let h = Deaddrop.histogram t.drops in
      m "server %d: round %d exchange: %d requests, m1=%d m2=%d"
        t.position round (Array.length inners) h.Deaddrop.m1
        h.Deaddrop.m2);
  Telemetry.mark t.tel ~name:"unpeel" ~round ~server:pos ();
  reseal t ~round ~dialing:false ~payload_len:Types.exchange_result_len slots
    (Array.get results)

(* ------------------------------------------------------------------ *)
(* Dialing protocol                                                    *)
(* ------------------------------------------------------------------ *)

(* Per-drop noise invitations (§5.3: every server must noise every
   drop): ⌈max(0, Laplace)⌉ for each drop in turn, its count drawn
   before its invitations.  [draw index] draws one invitation's inputs;
   the result is newest first. *)
let draw_dial_noise t ~m draw =
  let out = ref [] in
  for index = 0 to m - 1 do
    let n =
      Noise.dialing_per_drop ~rng:t.rng ~mode:t.cfg.noise_mode
        t.cfg.dial_noise
    in
    t.metrics.noise_invitations <- t.metrics.noise_invitations + n;
    for _ = 1 to n do
      out := draw index :: !out
    done
  done;
  !out

(* Mixing-server noise: each invitation's draw, then its onion's
   ephemeral secrets, drawn on the coordinator; each pool chunk then
   builds its invitations, frames them for their drops, and wraps
   them. *)
let dial_noise t ~round ~m =
  let specs =
    draw_dial_noise t ~m (fun index ->
        let d = Dialing.draw ~rng:t.rng ~kind:t.cfg.dial_kind () in
        (index, noise_spec t d))
  in
  Telemetry.add_counter t.tel
    ~labels:[ ("kind", "invitation") ]
    ~by:(float_of_int (List.length specs))
    "vuvuzela_noise_onions_total";
  par_chunks t
    (fun chunk ->
      let invitations =
        Dialing.noise_invitations (Array.map (fun (_, (_, d)) -> d) chunk)
      in
      wrap_noise t ~round
        (Array.mapi
           (fun i (index, (eph_sks, _)) ->
             (eph_sks, Dialing.encode_payload ~index invitations.(i)))
           chunk))
    (Array.of_list specs)

let dial_finish_forward t st ~m =
  if is_last t then invalid_arg "Server.dial_finish_forward: last server";
  if not st.s_dialing then
    invalid_arg "Server.dial_finish_forward: conversation stream";
  finish_forward t st t.dial_rounds ~result_len:Types.dial_result_len
    (dial_noise t ~m)

let dial_backward t ~round results =
  unshuffle_and_reply t t.dial_rounds ~round ~dialing:true results

let dial_ack = Bytes.make Types.dial_result_len '\x01'

(* Last server: file invitations into drops, add its own per-drop noise
   (the last server's noise need not transit the mixnet), ack. *)
let dial_finish_deliver t st ~m =
  if not (is_last t) then
    invalid_arg "Server.dial_finish_deliver: not last server";
  if not st.s_dialing then
    invalid_arg "Server.dial_finish_deliver: conversation stream";
  let round = st.s_round in
  let pos = t.position in
  let slots, inners = stream_collect t st in
  let store = Deaddrop.Invitation.create ~m in
  Telemetry.stage t.tel ~name:"exchange" ~round ~server:pos ~dialing:true
    (fun () ->
      let arrived = ref 0 in
      let expected_len = Dialing.invitation_len t.cfg.dial_kind in
      Array.iter
        (fun payload ->
          match Dialing.decode_payload payload with
          | Ok (index, invitation)
            when Bytes.length invitation = expected_len
                 && (index = Types.noop_drop || (index >= 0 && index < m)) ->
              if index <> Types.noop_drop then incr arrived;
              Deaddrop.Invitation.put store ~index invitation
          | Ok _ | Error _ -> ())
        inners;
      (* §5.4: propose m for the next round so each drop carries roughly µ
         real invitations.  The arrivals include the mixing servers' noise
         ((chain_len−1)·µ per drop on average), which the last server
         subtracts out before applying m = n·f/µ. *)
      let mu = t.cfg.dial_noise.Vuvuzela_dp.Laplace.mu in
      let upstream_noise = float_of_int ((t.cfg.n_servers - 1) * m) *. mu in
      let real_estimate =
        Float.max 0. (float_of_int !arrived -. upstream_noise)
      in
      t.proposed_m <- max 1 (int_of_float (Float.round (real_estimate /. mu)));
      Log.debug (fun lm ->
          lm
            "server %d: dial round %d: %d arrivals, est. %.0f real, propose \
             m=%d"
            t.position round !arrived real_estimate t.proposed_m));
  (* The last server's own per-drop noise goes straight into the store —
     it need not transit the mixnet (§5.3). *)
  Telemetry.stage t.tel ~name:"noise" ~round ~server:pos ~dialing:true
    (fun () ->
      let draw index =
        (index, Dialing.draw ~rng:t.rng ~kind:t.cfg.dial_kind ())
      in
      let draws = Array.of_list (List.rev (draw_dial_noise t ~m draw)) in
      let invitations =
        par_chunks t
          (fun chunk -> Dialing.noise_invitations (Array.map snd chunk))
          draws
      in
      Array.iteri
        (fun i (index, _) ->
          Deaddrop.Invitation.put store ~index invitations.(i))
        draws);
  (* Once per round, everything filed: each drop is published in byte
     order, whatever order its invitations arrived in. *)
  Deaddrop.Invitation.seal store;
  Telemetry.mark t.tel ~name:"shuffle" ~round ~server:pos ~dialing:true ();
  Telemetry.mark t.tel ~name:"unpeel" ~round ~server:pos ~dialing:true ();
  t.invitations <-
    (round, store)
    :: List.filteri (fun i _ -> i < invitation_history - 1) t.invitations;
  t.metrics.rounds <- t.metrics.rounds + 1;
  reseal t ~round ~dialing:true ~payload_len:Types.dial_result_len slots
    (fun _ -> dial_ack)

(* Either kind, either position: what a relay calls once a round's
   last part has been fed. *)
let finish t st ~m =
  match (st.s_dialing, is_last t) with
  | false, false -> conv_finish_forward t st
  | false, true -> conv_finish_exchange t st
  | true, false -> dial_finish_forward t st ~m
  | true, true -> dial_finish_deliver t st ~m

let backward t ~(kind : Round.kind) ~round results =
  match kind with
  | Round.Conversation -> conv_backward t ~round results
  | Round.Dialing -> dial_backward t ~round results

(* Clients download invitation drops directly (§5.5: fetches need no
   mixing or noising, and would be served by a CDN at scale).  Without
   [dial_round] the newest store answers; with it, a client that missed
   rounds can still fetch any store inside the retention window. *)
let invitation_store t = function
  | None -> (
      match t.invitations with [] -> None | (_, store) :: _ -> Some store)
  | Some dial_round -> List.assoc_opt dial_round t.invitations

let fetch_invitations ?dial_round t ~index =
  match invitation_store t dial_round with
  | None -> []
  | Some store -> Deaddrop.Invitation.fetch store ~index

(* ------------------------------------------------------------------ *)
(* Round aborts                                                        *)
(* ------------------------------------------------------------------ *)

(* The supervisor's recovery path: discard everything this server
   recorded for a failed round so the retry (under a fresh round number)
   starts clean.  Conversation and dialing rounds number independently,
   so the abort entry points are separate — aborting conversation round
   N must not destroy dialing round N's invitation store. *)

let abort_conv_round t ~round = Hashtbl.remove t.conv_rounds round

let abort_dial_round t ~round =
  Hashtbl.remove t.dial_rounds round;
  t.invitations <- List.remove_assoc round t.invitations
