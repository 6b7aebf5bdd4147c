(* Caller certificates: the §9 PKI extension.

   "When receiving a call via the dialing protocol, the recipient needs
   to identify who is calling, based on the caller's public key.  Here,
   the caller can supply a certificate along with the invitation, if the
   recipient does not already know the caller."

   A certificate binds a caller's long-term X25519 conversation key to an
   Ed25519 signing identity (the caller's own, or an introducer's whose
   key the recipient already trusts) together with a display-name hash
   and a validity window.  Certificates ride inside *certified
   invitations* — a deployment-wide alternative invitation format (all
   clients use the same format so sizes stay uniform). *)

open Vuvuzela_crypto
open Vuvuzela_mixnet

type t = {
  subject_pk : bytes;  (** X25519 key being vouched for (32 bytes) *)
  name_hash : bytes;  (** SHA-256 of the display name (32 bytes) *)
  expires : int;  (** dialing round after which the cert is invalid *)
  issuer_pk : bytes;  (** Ed25519 key of the signer (32 bytes) *)
  signature : bytes;  (** Ed25519 signature (64 bytes) *)
}

(* 32 + 32 + 8 + 32 + 64 *)
let encoded_len = 168

let to_be_signed ~subject_pk ~name_hash ~expires ~issuer_pk =
  Wire.encode (fun w ->
      Wire.Writer.raw w (Bytes.of_string "vuvuzela-cert-v1");
      Wire.Writer.bytes_fixed w ~len:32 subject_pk;
      Wire.Writer.bytes_fixed w ~len:32 name_hash;
      Wire.Writer.u64 w expires;
      Wire.Writer.bytes_fixed w ~len:32 issuer_pk)

let issue ~issuer_sk ~subject_pk ~name ~expires =
  let issuer_pk = Ed25519.public_key issuer_sk in
  let name_hash = Sha256.digest_string name in
  let signature =
    Ed25519.sign ~secret:issuer_sk
      (to_be_signed ~subject_pk ~name_hash ~expires ~issuer_pk)
  in
  { subject_pk; name_hash; expires; issuer_pk; signature }

(* Self-certification: the caller vouches for its own conversation key
   under its own signing identity (the recipient matches [issuer_pk]
   against an address-book entry). *)
let self_signed ~signing_sk ~conversation_pk ~name ~expires =
  issue ~issuer_sk:signing_sk ~subject_pk:conversation_pk ~name ~expires

type error =
  | Bad_signature
  | Expired of { expires : int; now : int }
  | Untrusted_issuer

let pp_error fmt = function
  | Bad_signature -> Format.pp_print_string fmt "bad signature"
  | Expired { expires; now } ->
      Format.fprintf fmt "expired (at %d, now %d)" expires now
  | Untrusted_issuer -> Format.pp_print_string fmt "untrusted issuer"

(* Verify a certificate at dialing round [now]; [trusted] decides whether
   the issuer key is acceptable (e.g. an address-book lookup). *)
let verify ~now ~trusted cert =
  if not (trusted cert.issuer_pk) then Error Untrusted_issuer
  else if cert.expires < now then
    Error (Expired { expires = cert.expires; now })
  else begin
    let msg =
      to_be_signed ~subject_pk:cert.subject_pk ~name_hash:cert.name_hash
        ~expires:cert.expires ~issuer_pk:cert.issuer_pk
    in
    if Ed25519.verify ~public:cert.issuer_pk ~signature:cert.signature msg
    then Ok ()
    else Error Bad_signature
  end

let matches_name cert name =
  Bytes_util.ct_equal cert.name_hash (Sha256.digest_string name)

let encode cert =
  Wire.encode (fun w ->
      Wire.Writer.bytes_fixed w ~len:32 cert.subject_pk;
      Wire.Writer.bytes_fixed w ~len:32 cert.name_hash;
      Wire.Writer.u64 w cert.expires;
      Wire.Writer.bytes_fixed w ~len:32 cert.issuer_pk;
      Wire.Writer.bytes_fixed w ~len:64 cert.signature)

let decode b =
  Wire.decode
    (fun r ->
      let subject_pk = Wire.Reader.bytes_fixed r 32 in
      let name_hash = Wire.Reader.bytes_fixed r 32 in
      let expires = Wire.Reader.u64 r in
      let issuer_pk = Wire.Reader.bytes_fixed r 32 in
      let signature = Wire.Reader.bytes_fixed r 64 in
      { subject_pk; name_hash; expires; issuer_pk; signature })
    b

(* ------------------------------------------------------------------ *)
(* Certified invitations                                               *)
(* ------------------------------------------------------------------ *)

(* Sealed plaintext: caller's conversation key followed by the
   certificate.  All certified invitations are the same size; a noise
   invitation is an ephemeral public key and uniform filler of the same
   length (Dialing.noise_invitations). *)
let certified_plain_len = 32 + encoded_len
let certified_invitation_len = certified_plain_len + Box.anonymous_overhead

let seal_certified ?rng ~caller_pk ~cert ~recipient_pk () =
  if not (Bytes.equal cert.subject_pk caller_pk) then
    invalid_arg "Certificate.seal_certified: cert does not cover caller";
  Box.seal_anonymous ?rng ~recipient_pk
    (Bytes.cat caller_pk (encode cert))

let of_plain = function
  | Some plain when Bytes.length plain = certified_plain_len -> (
      let caller_pk = Bytes.sub plain 0 32 in
      match decode (Bytes.sub plain 32 encoded_len) with
      | Ok cert -> Some (caller_pk, cert)
      | Error _ -> None)
  | _ -> None

let open_certified ~recipient_sk ~recipient_pk sealed =
  of_plain (Box.open_anonymous ~recipient_sk ~recipient_pk sealed)

let open_certified_many ~recipient_sk ~recipient_pk sealed =
  Array.map of_plain (Box.open_anonymous_many ~recipient_sk ~recipient_pk sealed)
