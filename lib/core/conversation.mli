(** Client side of the conversation protocol (Algorithm 1): per-round
    dead-drop derivation and exchange payload construction. *)

type session

val derive : identity:Types.identity -> peer_pk:bytes -> session
(** Real session with a conversation partner; both sides derive the same
    dead drops and mirror-image message keys.
    @raise Invalid_argument if [peer_pk] is a low-order key: its X25519
    shared point is all zero (RFC 7748 §6.1, checked in constant time),
    so anyone could compute the session's dead drops and keys. *)

val accepts : identity:Types.identity -> peer_pk:bytes -> bool
(** Whether {!derive} accepts [peer_pk]: one X25519 operation. *)

val fake : ?rng:Vuvuzela_crypto.Drbg.t -> identity:Types.identity -> unit -> session
(** Algorithm 1 step 1b: an idle client's indistinguishable fake
    session (random peer key, random dead drops).  A random key that is
    low-order (probability ~2^-250) is drawn again, never raised on. *)

val drop_id : session -> round:int -> Types.drop_id
(** [b = H(s, r)]: fresh pseudo-random 128-bit dead drop per round. *)

val exchange_payload : session -> round:int -> Message.t -> bytes
(** The innermost onion plaintext: [drop_id || sealed message], always
    {!Types.exchange_payload_len} bytes. *)

val read_result : session -> round:int -> bytes -> Message.t option
(** Decrypt the partner's message from the exchange result; [None] for
    the empty result, tampering, or a fake session. *)
