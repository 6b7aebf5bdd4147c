(** Caller certificates (§9 "PKI for dialing"): Ed25519-signed bindings
    of a conversation key to a signing identity, carried inside
    fixed-size certified invitations. *)

type t = {
  subject_pk : bytes;
  name_hash : bytes;
  expires : int;  (** last dialing round at which the cert is valid *)
  issuer_pk : bytes;
  signature : bytes;
}

val encoded_len : int
(** 168 bytes. *)

val issue :
  issuer_sk:bytes -> subject_pk:bytes -> name:string -> expires:int -> t

val self_signed :
  signing_sk:bytes -> conversation_pk:bytes -> name:string -> expires:int -> t

type error = Bad_signature | Expired of { expires : int; now : int } | Untrusted_issuer

val pp_error : Format.formatter -> error -> unit

val verify :
  now:int -> trusted:(bytes -> bool) -> t -> (unit, error) result
(** Checks issuer trust, expiry against the current dialing round, and
    the signature, in that order. *)

val matches_name : t -> string -> bool
val encode : t -> bytes
val decode : bytes -> (t, string) result

(** {2 Certified invitations} *)

val certified_invitation_len : int
(** The fixed on-the-wire size (248 bytes: 32 + 168 + sealed-box
    overhead).  A deployment uses either plain 80-byte or certified
    invitations, never a mix, so sizes stay uniform. *)

val seal_certified :
  ?rng:Vuvuzela_crypto.Drbg.t ->
  caller_pk:bytes ->
  cert:t ->
  recipient_pk:bytes ->
  unit ->
  bytes
(** @raise Invalid_argument if the certificate's subject is not
    [caller_pk]. *)

val open_certified :
  recipient_sk:bytes -> recipient_pk:bytes -> bytes -> (bytes * t) option
(** Trial-decrypt: [(caller_conversation_pk, certificate)].  The
    certificate still needs {!verify}. *)
