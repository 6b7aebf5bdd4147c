(* Client side of the dialing protocol (§5).

   An invitation is the caller's long-term public key — optionally
   accompanied by a certificate (§9) — sealed anonymously to the callee.
   It is addressed to invitation drop H(callee_pk) mod m.  Idle clients
   send a syntactically identical request to the no-op drop so that
   participation is not observable (§5.2).

   A deployment fixes one invitation format for everybody (plain 80-byte
   or certified 248-byte); sizes must be uniform or the format itself
   would become an observable variable. *)

open Vuvuzela_crypto
open Vuvuzela_mixnet

type kind = Plain | Certified

let invitation_len = function
  | Plain -> Types.invitation_len
  | Certified -> Certificate.certified_invitation_len

let payload_len kind = 2 + invitation_len kind

(* The dialing request payload carried through the mixnet:
   u16 drop index || invitation. *)
let encode_payload ~index invitation =
  Wire.encode (fun w ->
      Wire.Writer.u16 w index;
      Wire.Writer.raw w invitation)

let decode_payload b =
  Wire.decode
    (fun r ->
      let index = Wire.Reader.u16 r in
      let invitation = Wire.Reader.rest r in
      (index, invitation))
    b

(* A real plain invitation: my public key sealed to the callee. *)
let invite ?rng ~identity:(id : Types.identity) ~callee_pk ~m () =
  let invitation = Box.seal_anonymous ?rng ~recipient_pk:callee_pk id.public in
  let index = Deaddrop.Invitation.index_of ~m callee_pk in
  encode_payload ~index invitation

(* A certified invitation: public key + certificate sealed together. *)
let invite_certified ?rng ~identity:(id : Types.identity) ~cert ~callee_pk ~m
    () =
  let invitation =
    Certificate.seal_certified ?rng ~caller_pk:id.Types.public ~cert
      ~recipient_pk:callee_pk ()
  in
  let index = Deaddrop.Invitation.index_of ~m callee_pk in
  encode_payload ~index invitation

(* One invitation's random draws, for the two invitations nobody opens:
   an idle client's no-op and a server's noise.  Three DRBG calls, sized
   and ordered as a sealed box's plaintext, recipient key and ephemeral
   secret.  Each call starts a fresh stream whatever its length, so
   every later draw — onion keys, shuffles, acks — is the one a sealed
   box would leave.  The secret is drawn last; the filler is the first
   [invitation_len - 32] bytes of the other two. *)
type draw = { secret : bytes; filler : bytes }

let draw ?rng ~kind () =
  let body = Drbg.bytes ?rng (invitation_len kind - Box.anonymous_overhead) in
  let tail = Drbg.bytes ?rng Curve25519.key_len in
  let filler =
    Bytes.sub (Bytes.cat body tail) 0 (invitation_len kind - Curve25519.key_len)
  in
  { secret = Drbg.bytes ?rng Curve25519.scalar_len; filler }

(* Noise invitations (server cover traffic, §5.3): a real ephemeral
   public key, then the filler where a box's ciphertext and tag would
   be.  Up to its trial decryption, which fails on both, a real
   invitation is a key and pseudorandom bytes; so is noise.  The key
   must be real: a random string has bit 255 set half the time and
   lies on the twist half the time.  One base comb each, all of them
   one batch, for one field inversion. *)
let noise_invitations draws =
  let epks =
    Curve25519.batch (Array.map (fun d -> Curve25519.Base d.secret) draws)
  in
  Array.mapi (fun i d -> Bytes.cat epks.(i) d.filler) draws

(* Idle clients write to the no-op drop (§5.2), which the last server
   discards unread; before it, the request is inside onion layers.  So
   nothing need be sealed: the invitation is the draws themselves. *)
let noop ?rng ?(kind = Plain) () =
  let d = draw ?rng ~kind () in
  encode_payload ~index:Types.noop_drop (Bytes.cat d.secret d.filler)

(* Which drop do I download? *)
let my_drop ~identity:(id : Types.identity) ~m =
  Deaddrop.Invitation.index_of ~m id.public

(* The invitations of a drop that have [len] bytes, as an array to open
   in one batch. *)
let sized len invitations =
  Array.of_list (List.filter (fun inv -> Bytes.length inv = len) invitations)

(* Trial-decrypt every plain invitation in my drop, every DH in one
   batch (one field inversion for the drop); return the callers' public
   keys in drop order (§5.1). *)
let scan ~identity:(id : Types.identity) invitations =
  Box.open_anonymous_many ~recipient_sk:id.secret ~recipient_pk:id.public
    (sized Types.invitation_len invitations)
  |> Array.to_list
  |> List.filter_map (function
       | Some caller_pk when Bytes.length caller_pk = Curve25519.key_len ->
           Some caller_pk
       | _ -> None)

(* Trial-decrypt certified invitations, batched as [scan]: (caller key,
   certificate) pairs.  Certificate verification is the caller's
   business (trust policy). *)
let scan_certified ~identity:(id : Types.identity) invitations =
  Certificate.open_certified_many ~recipient_sk:id.secret
    ~recipient_pk:id.public
    (sized Certificate.certified_invitation_len invitations)
  |> Array.to_list |> List.filter_map Fun.id
