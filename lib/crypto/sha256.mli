(** SHA-256 (FIPS 180-4), pure OCaml.

    Used for dead-drop derivation ([H(s, r)]), invitation-drop addressing
    ([H(pk) mod m]), and as the compression function under {!Hmac} and
    {!Hkdf}. *)

type t
(** Incremental hashing state. *)

val init : unit -> t
val feed : t -> bytes -> unit

val feed_sub : t -> bytes -> off:int -> len:int -> unit
(** Absorb a sub-range without slicing; raises [Invalid_argument] on a
    bad range.  [feed t b = feed_sub t b ~off:0 ~len:(Bytes.length b)]. *)

val copy : t -> t
(** An independent state with the same input so far: a prefix hashed
    once, then resumed many times ({!Hmac.key}). *)

val blit : src:t -> dst:t -> unit
(** Make [dst] a copy of [src] without allocating ({!Hmac} resets a
    spent inner state to its key's outer state). *)

val get : t -> bytes
(** Finalize a {e copy} of the state and return the 32-byte digest; the
    state may continue to be fed afterwards.  The padding is written
    into the state's buffer past the buffered bytes, so one state must
    not be finalized from two domains at once; a state that is only
    copied, as {!Hmac}'s key states are, is never written. *)

val get_into : t -> bytes -> off:int -> unit
(** {!get}, writing the digest at [off] instead of allocating it;
    raises [Invalid_argument] unless 32 bytes fit there. *)

val digest : bytes -> bytes
(** One-shot digest. *)

val digest_list : bytes list -> bytes
(** Digest of the concatenation of the given buffers. *)

val digest_string : string -> bytes
