(** HKDF-SHA256 (RFC 5869) key derivation. *)

val extract : ?salt:bytes -> bytes -> bytes
(** [extract ?salt ikm] is the 32-byte pseudorandom key.  [salt] defaults
    to 32 zero bytes per the RFC. *)

val derive : ?salt:bytes -> ikm:bytes -> ?info:bytes -> int -> bytes
(** Extract-then-expand in one call. *)
