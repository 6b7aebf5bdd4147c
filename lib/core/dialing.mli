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

type draw
(** One no-op's or noise invitation's random inputs. *)

val draw : ?rng:Vuvuzela_crypto.Drbg.t -> kind:kind -> unit -> draw
(** Three DRBG calls, sized and ordered as a sealed box's plaintext,
    recipient key and ephemeral secret, so the stream after them is the
    one a sealed box leaves.  A server draws its noise invitations with
    it on the coordinating domain and builds them a pool chunk at a
    time. *)

val noise_invitations : draw array -> bytes array
(** Noise invitations of the draws' kind: each a real ephemeral public
    key (bit 255 clear, on the curve, not its twist) followed by uniform
    filler the length of a box's ciphertext and tag.  No client's trial
    decryption opens one.  The keys' base combs run as one
    {!Vuvuzela_crypto.Curve25519.batch}. *)

val noop : ?rng:Vuvuzela_crypto.Drbg.t -> ?kind:kind -> unit -> bytes
(** An idle client's request to the no-op drop: one {!draw}'s bytes,
    unsealed, since the last server discards them unread. *)

val my_drop : identity:Types.identity -> m:int -> int

val scan : identity:Types.identity -> bytes list -> bytes list
(** Trial-decrypt a plain drop; returns callers' public keys, in drop
    order.  Every invitation's DH runs in one {!Curve25519.batch}, for
    one field inversion per drop; what it returns is what
    {!Box.open_anonymous} gives one invitation at a time. *)

val scan_certified :
  identity:Types.identity -> bytes list -> (bytes * Certificate.t) list
(** Trial-decrypt a certified drop, batched as {!scan}; certificates
    still need {!Certificate.verify} under the recipient's trust
    policy. *)
