(** X25519 Diffie-Hellman scalar multiplication (RFC 7748), pure OCaml
    over the 51-bit-limb {!Fe25519} (the seed's 16-bit-limb ladder lives
    on in [Curve25519_ref], test/oracles, as the differential-testing
    oracle).

    This is the dominant CPU cost of Vuvuzela's servers (§8.2 of the
    paper); the simulator's cost model is calibrated against this module's
    measured throughput and against the paper's reported 340K ops/s per
    36-core server.  [scalarmult_base] — every fresh ephemeral key, on
    clients and servers alike — and [shared_static] — the DH of every
    wrapped onion layer toward a server's long-lived key — are
    {!Edwards25519}'s constant-time comb mapped to the Montgomery
    u-coordinate: 448 field multiplications and an inversion a batch
    shares, against the ladder's ~2,560.  A wrapped layer therefore costs two comb operations and no
    ladder, a sealed box a base comb and a ladder, and a noise
    invitation a base comb; peels and conversation keys run the
    ladder. *)

val key_len : int
(** 32. *)

val scalar_len : int
(** 32. *)

val clamp : bytes -> bytes
(** RFC 7748 scalar clamping (non-destructive copy). *)

val scalarmult : scalar:bytes -> point:bytes -> bytes
(** [scalarmult ~scalar ~point] is X25519(scalar, point).  The scalar is
    clamped internally. *)

val scalarmult_base : bytes -> bytes
(** Public key from a 32-byte secret: {!scalarmult} on the base point
    u = 9, bit for bit.  The scalar is clamped internally. *)

val shared : secret:bytes -> public:bytes -> bytes
(** Raw shared point; derive symmetric keys via {!Hkdf} (see {!Box}). *)

val is_zero : bytes -> bool
(** Whether a DH result is all zero, as a low-order public key gives,
    compared in constant time.  Callers reject it (RFC 7748 §6.1). *)

val shared_static : secret:bytes -> public:bytes -> bytes
(** [shared], bit for bit, for a [public] key that is used many times (a
    server's long-term key): the comb over a table built on the key's
    first use and memoised by its bytes, or the ladder for a key with no
    Edwards point (the twist).  The memo holds at most
    {!static_keys_cap} keys, evicting the oldest; it is safe to share
    across domains and takes no lock on a hit.  Constant time in
    [secret]; whether a table exists depends on [public] alone.  Do not
    use it for one-off keys (ephemeral keys, dialing recipients): each
    would evict a server key and cost a table build. *)

val static_keys_cap : int
(** 8: the most keys {!shared_static} keeps tables for (61 KB each, each
    built in BENCH_crypto.json's [keyed_table_ms], 0.40 ms on a 2-vCPU
    Xeon VM: about six ladders). *)

(** One X25519 operation of a {!batch}, by the kind {!op_counts} counts
    it under. *)
type op =
  | Ladder of { scalar : bytes; point : bytes }  (** {!scalarmult} *)
  | Base of bytes  (** {!scalarmult_base} of this scalar *)
  | Keyed of { secret : bytes; public : bytes }  (** {!shared_static} *)

val batch : op array -> bytes array
(** Each operation's encoding, bit for bit what it returns alone, for
    one field inversion in all ({!Fe25519.batch_invert}) instead of one
    each: every operation stops at its u-coordinate as a fraction, and
    one batch inverts every denominator.  A low-order key's zero
    denominator gives its own all-zero result, as alone, and leaves the
    others intact.  Counted in {!op_counts} exactly as the operations
    run one by one; [scalarmult], [scalarmult_base], [shared] and
    [shared_static] are its one-operation case. *)

type op_counts = {
  ladder : int;  (** {!scalarmult}, {!shared}, and [shared_static]'s fall-back *)
  base : int;  (** {!scalarmult_base} *)
  keyed : int;  (** {!shared_static} over a memoised table *)
}

val op_counts : unit -> op_counts
(** X25519 operations by kind since start-up, summed over all domains. *)
