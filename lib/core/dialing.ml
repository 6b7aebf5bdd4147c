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

(* An indistinguishable invitation-shaped blob sealed to a random key;
   used for idle no-ops and server noise.  [kind] fixes the size.  It is
   planned in two stages, so a server's noise can seal on the pool: the
   draw takes every random input from the DRBG — the plaintext, then
   the recipient key, then the ephemeral secret, the order the one-shot
   seal always consumed them in — and the pure batched seal runs
   after. *)
let draw_blob ?rng ~kind () =
  let pt = Drbg.bytes ?rng (invitation_len kind - Box.anonymous_overhead) in
  let recipient_pk = Drbg.bytes ?rng Curve25519.key_len in
  (Drbg.bytes ?rng Curve25519.scalar_len, recipient_pk, pt)

let blob ?rng ~kind () =
  (Box.seal_anonymous_many [| draw_blob ?rng ~kind () |]).(0)

(* Idle clients write to the no-op drop (§5.2); byte-for-byte
   indistinguishable from a real invitation before the last server. *)
let noop ?rng ?(kind = Plain) () =
  encode_payload ~index:Types.noop_drop (blob ?rng ~kind ())

(* A noise invitation addressed to a specific drop (server cover
   traffic, §5.3): no client's trial decryption ever succeeds on it. *)
let noise ?rng ?(kind = Plain) ~index () =
  encode_payload ~index (blob ?rng ~kind ())

(* Which drop do I download? *)
let my_drop ~identity:(id : Types.identity) ~m =
  Deaddrop.Invitation.index_of ~m id.public

(* Trial-decrypt every plain invitation in my drop; return the callers'
   public keys (§5.1). *)
let scan ~identity:(id : Types.identity) invitations =
  List.filter_map
    (fun inv ->
      if Bytes.length inv <> Types.invitation_len then None
      else
        match
          Box.open_anonymous ~recipient_sk:id.secret ~recipient_pk:id.public
            inv
        with
        | Some caller_pk when Bytes.length caller_pk = Curve25519.key_len ->
            Some caller_pk
        | _ -> None)
    invitations

(* Trial-decrypt certified invitations: (caller key, certificate) pairs.
   Certificate verification is the caller's business (trust policy). *)
let scan_certified ~identity:(id : Types.identity) invitations =
  List.filter_map
    (fun inv ->
      if Bytes.length inv <> Certificate.certified_invitation_len then None
      else
        Certificate.open_certified ~recipient_sk:id.secret
          ~recipient_pk:id.public inv)
    invitations
