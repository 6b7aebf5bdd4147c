(** SHA-256 (FIPS 180-4), pure OCaml.

    Used for dead-drop derivation ([H(s, r)]), invitation-drop addressing
    ([H(pk) mod m]), and as the compression function under {!Hmac} and
    {!Hkdf}. *)

type t
(** Incremental hashing state. *)

val init : unit -> t
val feed : t -> bytes -> unit

val copy : t -> t
(** An independent state with the same input so far: a prefix hashed
    once, then resumed many times ({!Hmac.key}). *)

val get : t -> bytes
(** Finalize a {e copy} of the state and return the 32-byte digest; the
    state may continue to be fed afterwards. *)

val digest : bytes -> bytes
(** One-shot digest. *)

val digest_list : bytes list -> bytes
(** Digest of the concatenation of the given buffers. *)

val digest_string : string -> bytes
