(* Client side of the conversation protocol (Algorithm 1).

   A [session] binds two users who have agreed (via dialing) to talk.
   For each round r it derives:

     - the dead-drop ID   b = H(s, r)      (128 bits, fresh every round)
     - the message keys   (direction-separated; see Message)

   and builds the fixed-size exchange payload  b || Seal(m).  Idle
   clients build the same payload from a session with a freshly random
   public key (step 1b of Algorithm 1), so real and fake requests are
   indistinguishable. *)

open Vuvuzela_crypto

type session = {
  drop_key : Hmac.key;  (** the HKDF'd conversation secret, pads hashed *)
  keys : Message.keys;
  peer_pk : bytes;
}

(* RFC 7748 §6.1: a low-order peer key makes the shared point all
   zero, and a session whose dead drops and keys anyone can compute. *)
let shared ~identity:(id : Types.identity) ~peer_pk =
  let raw = Curve25519.shared ~secret:id.secret ~public:peer_pk in
  if Curve25519.is_zero raw then None else Some raw

let accepts ~identity ~peer_pk = Option.is_some (shared ~identity ~peer_pk)

let session ~identity ~peer_pk =
  Option.map
    (fun raw ->
      let base =
        Hkdf.derive ~ikm:raw ~info:(Bytes.of_string "vuvuzela-session-v1") 32
      in
      {
        drop_key = Hmac.key base;
        keys =
          Message.direction_keys ~base ~my_pk:identity.Types.public
            ~their_pk:peer_pk;
        peer_pk;
      })
    (shared ~identity ~peer_pk)

let derive ~identity ~peer_pk =
  match session ~identity ~peer_pk with
  | Some s -> s
  | None -> invalid_arg "Conversation.derive: low-order peer key"

(* Step 1b: a fake session with a random public key; the resulting dead
   drop is uniformly random and the sealed message opens for nobody.  A
   draw that happens to be a low-order key is drawn again. *)
let rec fake ?rng ~identity () =
  match session ~identity ~peer_pk:(Drbg.bytes ?rng 32) with
  | Some s -> s
  | None -> fake ?rng ~identity ()

(* b = H(s, r): per-round pseudo-random dead drop (§4.1, "Randomizing
   dead drop IDs"). *)
let drop_id session ~round =
  let r = Bytes.create 8 in
  Bytes_util.store_le64 r 0 round;
  Bytes.sub
    (Hmac.mac session.drop_key (Bytes_util.concat [ Bytes.of_string "drop"; r ]))
    0 Types.drop_id_len

(* The exchange payload placed into the onion: drop ID followed by the
   sealed message.  Always [Types.exchange_payload_len] bytes. *)
let exchange_payload session ~round msg =
  let sealed = Message.seal ~keys:session.keys ~round msg in
  Bytes_util.concat [ drop_id session ~round; sealed ]

(* Interpret the exchange result (the partner's sealed message, or the
   all-zero empty result if nobody else accessed the drop, or garbage if
   this was a fake session). *)
let read_result session ~round result =
  if Bytes.length result <> Types.exchange_result_len then None
  else Message.open_ ~keys:session.keys ~round result
