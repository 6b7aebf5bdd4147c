(** Ed25519 signatures (RFC 8032), pure OCaml.

    Used by {!Vuvuzela.Certificate} for the §9 PKI extension (binding a
    caller's conversation key to a long-term signing identity). *)

val keypair : ?rng:Drbg.t -> unit -> bytes * bytes
(** Fresh [(seed, public_key)]. *)

val public_key : bytes -> bytes
(** Derive the public key from a 32-byte seed. *)

val sign : secret:bytes -> bytes -> bytes
(** Deterministic 64-byte signature (R || S). *)

val verify : public:bytes -> signature:bytes -> bytes -> bool
(** Strict verification: rejects bad lengths; keys that are off the
    curve, non-canonical (y >= p, or x = 0 with the sign bit set) or of
    small order; and non-canonical S. *)
