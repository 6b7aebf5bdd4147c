(** HMAC-SHA256 (RFC 2104). *)

type key
(** A key's inner and outer pad states, hashed once.  Immutable, so one
    key can serve every domain. *)

val key : bytes -> key

val mac : key -> bytes -> bytes
(** [mac (key k) data] is [sha256 ~key:k data], without hashing the
    pads again. *)

val start : key -> Sha256.t
(** A fresh inner state under the key, to feed the message to in as
    many pieces as it comes in. *)

val finish_into : key -> Sha256.t -> bytes -> off:int -> unit
(** [finish_into key st dst ~off] writes the 32-byte tag of what was fed
    to [st] (from {!start} under the same key) at [off].  [st] is spent.
    [mac key data] is [start], one [Sha256.feed] and [finish_into]. *)

val sha256 : key:bytes -> bytes -> bytes
(** [sha256 ~key data] is the 32-byte HMAC-SHA256 tag of [data]. *)
