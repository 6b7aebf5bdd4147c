(** Public-key authenticated encryption (X25519 + HKDF +
    ChaCha20-Poly1305), in the NaCl "box" style. *)

val anonymous_overhead : int
(** Bytes added by {!seal_anonymous} (48): ephemeral public key + tag.
    An 80-byte Vuvuzela invitation is a 32-byte sender key under this
    overhead, exactly matching §8.1 of the paper. *)

val derive : bytes -> bytes
(** The symmetric key of an X25519 shared point, via HKDF: both sides of
    a DH pair, [derive (Curve25519.shared ~secret ~public)], obtain the
    same key, for {!Aead.seal} and {!Aead.open_}. *)

val seal_anonymous : ?rng:Drbg.t -> recipient_pk:bytes -> bytes -> bytes
(** Sealed box: fresh ephemeral key per message; the recipient can open it
    but cannot identify the sender from the ciphertext, and third parties
    learn nothing (used for dialing invitations).  It draws 32 bytes of
    ephemeral secret, as {!Drbg.keypair} does, and runs its base comb
    and ladder as one {!Curve25519.batch}. *)

val open_anonymous :
  recipient_sk:bytes -> recipient_pk:bytes -> bytes -> bytes option
(** [None] unless the box authenticates, and for a low-order ephemeral
    key, whose DH is all zero whatever the recipient's secret
    (RFC 7748 §6.1), rejected in constant time. *)

val open_anonymous_many :
  recipient_sk:bytes -> recipient_pk:bytes -> bytes array -> bytes option array
(** {!open_anonymous} of each box, in order, with every box's DH run in
    one {!Curve25519.batch}: one field inversion for the lot (a callee's
    scan of its drop).  A box shorter than {!anonymous_overhead} is
    [None] and takes no DH. *)
