(** HMAC-SHA256 (RFC 2104). *)

type key
(** A key's inner and outer pad states, hashed once.  Immutable, so one
    key can serve every domain. *)

val key : bytes -> key

val mac : key -> bytes -> bytes
(** [mac (key k) data] is [sha256 ~key:k data], without hashing the
    pads again. *)

val sha256 : key:bytes -> bytes -> bytes
(** [sha256 ~key data] is the 32-byte HMAC-SHA256 tag of [data]. *)

val verify : key:bytes -> tag:bytes -> bytes -> bool
(** Constant-time tag verification. *)
