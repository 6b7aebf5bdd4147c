(** Public-key authenticated encryption (X25519 + HKDF +
    ChaCha20-Poly1305), in the NaCl "box" style. *)

val overhead : int
(** Bytes added by {!seal} (16). *)

val anonymous_overhead : int
(** Bytes added by {!seal_anonymous} (48): ephemeral public key + tag.
    An 80-byte Vuvuzela invitation is a 32-byte sender key under this
    overhead, exactly matching §8.1 of the paper. *)

val precompute : secret:bytes -> public:bytes -> bytes
(** Symmetric key derived from the X25519 shared point via HKDF.  Both
    sides of the DH pair obtain the same key. *)

val derive : bytes -> bytes
(** The HKDF step of {!precompute}: [precompute ~secret ~public] is
    [derive (Curve25519.shared ~secret ~public)]. *)

val seal : key:bytes -> nonce:bytes -> ?aad:bytes -> bytes -> bytes
val open_ : key:bytes -> nonce:bytes -> ?aad:bytes -> bytes -> bytes option

val seal_into :
  key:bytes ->
  nonce:bytes ->
  ?aad:bytes ->
  src:bytes ->
  src_off:int ->
  len:int ->
  dst:bytes ->
  dst_off:int ->
  unit ->
  unit
(** Allocation-lean variants re-exported from {!Aead}; see
    {!Aead.seal_into}/{!Aead.open_into} for range and overlap rules. *)

val open_into :
  key:bytes ->
  nonce:bytes ->
  ?aad:bytes ->
  src:bytes ->
  src_off:int ->
  len:int ->
  dst:bytes ->
  dst_off:int ->
  unit ->
  bool

val seal_anonymous : ?rng:Drbg.t -> recipient_pk:bytes -> bytes -> bytes
(** Sealed box: fresh ephemeral key per message; the recipient can open it
    but cannot identify the sender from the ciphertext, and third parties
    learn nothing (used for dialing invitations).  It draws 32 bytes of
    ephemeral secret, as {!Drbg.keypair} does, and is
    {!seal_anonymous_many}'s one-box case. *)

val seal_anonymous_many : (bytes * bytes * bytes) array -> bytes array
(** [seal_anonymous_many [| (esk, recipient_pk, pt); ... |]]: box [i]
    sealed to [recipient_pk] under the raw 32-byte ephemeral secret
    [esk] (clamped inside), bit for bit what {!seal_anonymous} gives
    when its RNG yields [esk].  No RNG, so batches can fan out across
    domains.  The 2k X25519 operations of k boxes (a base comb and a
    ladder each) run as one {!Curve25519.batch}: one field inversion in
    all.  A low-order recipient key gives its box the all-zero DH, as
    alone, and leaves every other box unchanged. *)

val open_anonymous :
  recipient_sk:bytes -> recipient_pk:bytes -> bytes -> bytes option
