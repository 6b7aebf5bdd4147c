(* Protocol constants and shared types.

   Sizes follow §8.1 of the paper: conversation messages are 256 bytes on
   the wire (240-byte plaintext + 16-byte AEAD overhead); invitations are
   80 bytes (32-byte sender key + 48 bytes of sealed-box overhead). *)

(* Dead-drop IDs are 128-bit, so honest clients never collide (§3.1). *)
let drop_id_len = 16

(* Conversation plaintext: an 11-byte transport header (kind, seq, ack,
   length) followed by up to [text_capacity] bytes of user text, padded to
   a fixed size. *)
let message_plain_len = 240
let text_capacity = message_plain_len - 11 (* 229 *)

(* Sealed conversation message as stored in a dead drop. *)
let sealed_message_len = message_plain_len + Vuvuzela_crypto.Aead.tag_len
(* = 256 *)

(* Conversation exchange payload (innermost onion plaintext):
   dead-drop ID followed by the sealed message. *)
let exchange_payload_len = drop_id_len + sealed_message_len (* 272 *)

(* Conversation exchange result: just the (sealed) counterpart message. *)
let exchange_result_len = sealed_message_len (* 256 *)

(* Dialing: an invitation is the caller's 32-byte public key in a sealed
   box (anonymous: fresh ephemeral key + tag = 48 bytes of overhead). *)
let invitation_len =
  Vuvuzela_crypto.Curve25519.key_len + Vuvuzela_crypto.Box.anonymous_overhead
(* = 80 *)

(* The no-op invitation drop used by idle clients (§5.2): the last server
   files nothing there, so its contents are never downloaded by anyone
   (§8.3), and a no-op's invitation is unsealed random bytes. *)
let noop_drop = 0xffff

(* Dialing requests are acknowledged with a fixed-size dummy result so
   that reply sizes are uniform. *)
let dial_result_len = 1

type drop_id = bytes (* exactly [drop_id_len] bytes *)

(* A user identity: long-term X25519 keypair.  Public keys double as user
   identifiers, as in the paper (§3.1: "each user (identified by the
   user's public key)"). *)
type identity = { secret : bytes; public : bytes }

let identity_of_seed seed =
  let rng = Vuvuzela_crypto.Drbg.create ~seed in
  let secret, public = Vuvuzela_crypto.Drbg.keypair ~rng () in
  { secret; public }

let fresh_identity ?rng () =
  let secret, public = Vuvuzela_crypto.Drbg.keypair ?rng () in
  { secret; public }

(* Public-key comparison used for direction separation of conversation
   keys (lexicographic on the 32-byte encoding). *)
let compare_pk = Bytes.compare
