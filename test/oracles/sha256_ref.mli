(** Reference SHA-256 (FIPS 180-4): the tagged implementation kept
    verbatim as the differential oracle for the untagged {!Sha256}.
    Test and bench code only. *)

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
