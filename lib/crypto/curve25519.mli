(** X25519 Diffie-Hellman scalar multiplication (RFC 7748), pure OCaml
    over the 51-bit-limb {!Fe25519} (the seed's 16-bit-limb ladder lives
    on in [Curve25519_ref], test/oracles, as the differential-testing
    oracle).

    This is the dominant CPU cost of Vuvuzela's servers (§8.2 of the
    paper); the simulator's cost model is calibrated against this module's
    measured throughput and against the paper's reported 340K ops/s per
    36-core server.  [scalarmult_base] — every fresh ephemeral key, on
    clients and servers alike — is {!Edwards25519}'s constant-time
    fixed-base comb mapped to the Montgomery u-coordinate: ~750 field
    multiplications against the ladder's ~2,560. *)

val key_len : int
(** 32. *)

val scalar_len : int
(** 32. *)

val clamp : bytes -> bytes
(** RFC 7748 scalar clamping (non-destructive copy). *)

val scalarmult : scalar:bytes -> point:bytes -> bytes
(** [scalarmult ~scalar ~point] is X25519(scalar, point).  The scalar is
    clamped internally. *)

val base_point : bytes
(** The u-coordinate 9. *)

val scalarmult_base : bytes -> bytes
(** Public key from a 32-byte secret: [scalarmult ~scalar ~point:base_point],
    bit for bit.  The scalar is clamped internally. *)

val shared : secret:bytes -> public:bytes -> bytes
(** Raw shared point; derive symmetric keys via {!Hkdf} (see {!Box}). *)
