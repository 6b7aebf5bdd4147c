(** Client side of the dialing protocol (§5): building, addressing and
    scanning invitations — plain 80-byte or certified (§9) — all of one
    deployment-wide size. *)

type kind = Plain | Certified

val invitation_len : kind -> int
(** 80 (plain) or 248 (certified). *)

val payload_len : kind -> int
(** Invitation plus the u16 drop index. *)

val encode_payload : index:int -> bytes -> bytes
val decode_payload : bytes -> (int * bytes, string) result

val invite :
  ?rng:Vuvuzela_crypto.Drbg.t ->
  identity:Types.identity ->
  callee_pk:bytes ->
  m:int ->
  unit ->
  bytes
(** A real plain invitation addressed to drop [H(callee_pk) mod m]. *)

val invite_certified :
  ?rng:Vuvuzela_crypto.Drbg.t ->
  identity:Types.identity ->
  cert:Certificate.t ->
  callee_pk:bytes ->
  m:int ->
  unit ->
  bytes

val blob : ?rng:Vuvuzela_crypto.Drbg.t -> kind:kind -> unit -> bytes
(** An invitation of [kind]'s size sealed to a random key: no client's
    trial decryption ever opens it.  The body of {!noop} and {!noise}.
    [blob ?rng ~kind ()] ≡
    [(Box.seal_anonymous_many [| draw_blob ?rng ~kind () |]).(0)]. *)

val draw_blob :
  ?rng:Vuvuzela_crypto.Drbg.t ->
  kind:kind ->
  unit ->
  bytes * bytes * bytes
(** The random inputs of one {!blob}, as
    {!Vuvuzela_crypto.Box.seal_anonymous_many} takes them: (ephemeral
    secret, recipient key, plaintext), drawn plaintext first, then the
    recipient key, then the secret.  A server draws its noise
    invitations with it on the coordinating domain and seals them a
    pool chunk at a time. *)

val noop : ?rng:Vuvuzela_crypto.Drbg.t -> ?kind:kind -> unit -> bytes
(** An idle client's request to the no-op drop. *)

val noise :
  ?rng:Vuvuzela_crypto.Drbg.t -> ?kind:kind -> index:int -> unit -> bytes
(** A server noise invitation for a specific drop (§5.3). *)

val my_drop : identity:Types.identity -> m:int -> int

val scan : identity:Types.identity -> bytes list -> bytes list
(** Trial-decrypt a plain drop; returns callers' public keys. *)

val scan_certified :
  identity:Types.identity -> bytes list -> (bytes * Certificate.t) list
(** Trial-decrypt a certified drop; certificates still need
    {!Certificate.verify} under the recipient's trust policy. *)
