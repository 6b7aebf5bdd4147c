(* Vectorized synthetic population for scale benchmarks; see the
   interface.

   The representation is deliberately NOT n [Client.t] machines — a
   full client carries session tables, outboxes, ratchets, an address
   book, and its own DRBG, none of which the server side can observe.
   What the servers *do* see is one onion per slot per round, so that
   is all the population stores: flat per-client arrays (identifier,
   partner index, shared pair secret) plus per-round reply secrets.
   ~100 bytes per client of steady state means 100k clients fit where
   24 full clients used to live.

   Pairing is the paper's steady-state workload: client 2k converses
   with client 2k+1, every pair exchanges a real message every round
   (Figure 9 measures exactly this all-active population).  An odd
   population's last client plays the idle role: a random dead drop
   and random sealed bytes each round — the Algorithm 1 step 1b cover
   behaviour — which never rendezvous and must come back as the empty
   result.

   Cryptographic shortcuts, and why they are sound for load: real
   partners agree on dead drops and message keys via an X25519 handshake
   (Conversation.derive).  The servers never verify that derivation —
   they only match equal 128-bit drop ids and AEAD-seal whatever 256-byte
   sealed message rides along.  So the population draws each pair's
   shared secret straight from the seeded DRBG and derives drops
   (HMAC(base, round)) and direction keys (Message.direction_keys) from
   it, skipping n key generations and n/2 DH handshakes that would
   otherwise dominate setup at 100k clients without changing a single
   byte the servers touch.  The onions themselves are the real thing —
   full per-layer X25519 + AEAD via Onion.wrap_many, one batch per
   domain pool chunk — because per-onion crypto is precisely the
   server-side cost being measured. *)

open Vuvuzela
module Drbg = Vuvuzela_crypto.Drbg
module Hmac = Vuvuzela_crypto.Hmac
module Bytes_util = Vuvuzela_crypto.Bytes_util
module Onion = Vuvuzela_mixnet.Onion
module Pool = Vuvuzela_parallel.Pool

type t = {
  n : int;
  pks : bytes array;  (** 32-byte pseudo-identifiers (ordering only) *)
  partner : int array;  (** partner slot; [-1] for the idle straggler *)
  bases : bytes array;  (** per-pair shared secret (same ref both slots) *)
  eph_rng : Drbg.t;  (** onion ephemerals, drawn on the coordinator *)
  cover_rng : Drbg.t;  (** the idle client's random drops/padding *)
  mutable secrets : bytes array array;
      (** per-slot reply secrets of the round in flight *)
  mutable secrets_round : int;
}

let create ?(seed = "loadgen") ~n () =
  if n < 1 then invalid_arg "Loadgen.create: n < 1";
  let id_rng = Drbg.of_string (seed ^ "-identities") in
  let pair_rng = Drbg.of_string (seed ^ "-pairs") in
  let pks = Array.init n (fun _ -> Drbg.bytes ~rng:id_rng 32) in
  let partner =
    Array.init n (fun i ->
        if i = n - 1 && n mod 2 = 1 then -1
        else if i mod 2 = 0 then i + 1
        else i - 1)
  in
  let bases = Array.make n Bytes.empty in
  for k = 0 to (n / 2) - 1 do
    let base = Drbg.bytes ~rng:pair_rng 32 in
    bases.(2 * k) <- base;
    bases.((2 * k) + 1) <- base
  done;
  if n mod 2 = 1 then bases.(n - 1) <- Drbg.bytes ~rng:pair_rng 32;
  {
    n;
    pks;
    partner;
    bases;
    eph_rng = Drbg.of_string (seed ^ "-ephemerals");
    cover_rng = Drbg.of_string (seed ^ "-cover");
    secrets = [||];
    secrets_round = -1;
  }

let pairs t = t.n / 2

(* Both partners hash the same base, so both send the same id — which
   is all the dead-drop match requires. *)
let drop_id t ~round i =
  let r = Bytes.create 8 in
  Bytes_util.store_le64 r 0 round;
  Bytes.sub
    (Hmac.sha256 ~key:t.bases.(i)
       (Bytes_util.concat [ Bytes.of_string "loadgen-drop"; r ]))
    0 Types.drop_id_len

let keys t i =
  Message.direction_keys ~base:t.bases.(i) ~my_pk:t.pks.(i)
    ~their_pk:t.pks.(t.partner.(i))

(* What slot [i] says in [round] — reconstructible at verify time, so
   nothing is stored between build and verify. *)
let sent_message ~round i =
  Message.Data
    {
      seq = round land 0xffffffff;
      ack = max 0 (round - 1) land 0xffffffff;
      text = Printf.sprintf "r%d from %d" (round land 0xffff) (i land 0xffffff);
    }

(* The innermost onion plaintext for slot [i]: drop id ‖ sealed message
   for a paired client, indistinguishable random bytes for the idle
   one. *)
let payload t ~round i =
  if t.partner.(i) < 0 then
    Drbg.bytes ~rng:t.cover_rng Types.exchange_payload_len
  else
    Bytes_util.concat
      [
        drop_id t ~round i;
        Message.seal ~keys:(keys t i) ~round (sent_message ~round i);
      ]

let map_slots ?pool f slots =
  match pool with
  | Some p -> Pool.mapi_array p f slots
  | None -> Array.mapi f slots

let feed_conversation ?pool t ~round ~server_pks ~chunk ~sink =
  if chunk < 1 then invalid_arg "Loadgen.feed_conversation: chunk < 1";
  let chain_len = List.length server_pks in
  t.secrets <- Array.make t.n [||];
  t.secrets_round <- round;
  let off = ref 0 in
  while !off < t.n do
    let len = min chunk (t.n - !off) in
    let base = !off in
    (* Stateful work (payload sealing draws nothing, but the cover
       client's DRBG and every ephemeral draw do) stays on the
       coordinator, in slot order; only the pure per-onion wrap fans
       out. *)
    let payloads = Array.init len (fun k -> payload t ~round (base + k)) in
    let specs =
      Array.map
        (fun p -> (Onion.draw_eph_sks ~rng:t.eph_rng ~chain_len (), p))
        payloads
    in
    (* One batch, and so one field inversion, per pool chunk. *)
    let wrap = Onion.wrap_many ~server_pks ~round in
    let wrapped =
      match pool with
      | Some p -> Pool.map_chunks p wrap specs
      | None -> wrap specs
    in
    Array.iteri
      (fun k (w : Onion.wrapped) -> t.secrets.(base + k) <- w.secrets)
      wrapped;
    sink (Array.map (fun (w : Onion.wrapped) -> w.onion) wrapped);
    off := !off + len
  done

let conversation_onions ?pool t ~round ~server_pks =
  let acc = ref [] in
  feed_conversation ?pool t ~round ~server_pks ~chunk:t.n ~sink:(fun c ->
      acc := c :: !acc);
  match !acc with [ one ] -> one | parts -> Array.concat (List.rev parts)

type delivery = { delivered : int; expected : int; lone : int }

let verify ?pool t ~round results =
  if round <> t.secrets_round then
    invalid_arg
      (Printf.sprintf
         "Loadgen.verify: round %d but the round in flight is %d" round
         t.secrets_round);
  if Array.length results <> t.n then
    invalid_arg "Loadgen.verify: result count <> population";
  let opened =
    map_slots ?pool
      (fun i reply -> Onion.unwrap_reply ~secrets:t.secrets.(i) ~round reply)
      results
  in
  let delivered = ref 0 and lone = ref 0 in
  Array.iteri
    (fun i sealed ->
      let j = t.partner.(i) in
      if j < 0 then begin
        (* The idle client must get the empty (all-zero) result back —
           anything else means its cover payload matched something. *)
        match sealed with
        | Some s when Bytes.equal s (Bytes.make Types.exchange_result_len '\000')
          -> incr lone
        | Some _ | None -> ()
      end
      else
        match Option.bind sealed (Message.open_ ~keys:(keys t i) ~round) with
        | Some m when Message.equal m (sent_message ~round j) ->
            incr delivered
        | Some _ | None -> ())
    opened;
  {
    delivered = !delivered;
    expected = 2 * pairs t;
    lone = !lone;
  }
