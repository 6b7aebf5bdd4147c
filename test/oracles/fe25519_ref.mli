(** The seed field arithmetic modulo [2^255 - 19] (16×16-bit limbs,
    TweetNaCl schedule), retained as the differential-testing oracle for
    the fast {!Fe25519} that replaced it on the hot path.  Used
    only by [test/prop/] and the crypto benchmark.

    Operations write their result into the first argument; aliasing
    between output and inputs is allowed everywhere. *)

type t = int array

val create : unit -> t
val of_limbs : int array -> t
val copy : t -> t
val blit : src:t -> dst:t -> unit
val zero : unit -> t
val one : unit -> t

val carry : t -> unit
val cswap : t -> t -> int -> unit
(** Constant-time swap when the selector bit is 1. *)

val pack : t -> bytes
(** Canonical 32-byte little-endian encoding (fully reduced). *)

val unpack : bytes -> t
(** Masks the top bit, per both RFC 7748 and RFC 8032. *)

val add : t -> t -> t -> unit
val sub : t -> t -> t -> unit
val mul : t -> t -> t -> unit
val square : t -> t -> unit

val invert : t -> t -> unit
(** [a^(p-2)] by Fermat. *)

val pow2523 : t -> t -> unit
(** [a^((p-5)/8)], the Edwards decompression square-root helper. *)

val parity : t -> int
val equal : t -> t -> bool
