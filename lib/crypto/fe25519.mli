(** Field arithmetic modulo [2^255 - 19] on 5×51-bit limbs in native
    63-bit ints (curve25519-donna's radix-2^51 representation, with
    mul/square working on radix-2^25.5 half-limbs because a 51×51-bit
    product overflows a native int).  Shared by {!Curve25519} and
    {!Edwards25519}; differentially tested against the retained seed
    implementation [Fe25519_ref] (test/oracles) in [test/prop/].

    Operations write their result into the first argument; aliasing
    between output and inputs is allowed everywhere.

    Carry discipline: [add] and [sub] are lazy (no carry propagation);
    [mul], [square] and [mul_small] accept such lazy inputs and return
    carried values (limbs < 2^51 + 2^15).  [sub]'s second argument must
    be carried.  At most one lazy [add]/[sub] may be stacked before the
    value re-enters a multiplication — the op sequences in the ladder
    and the Edwards formulas all satisfy this. *)

type t = int array

val create : unit -> t

val of_limbs : int array -> t
(** From 5 radix-2^51 limbs. *)

val copy : t -> t
val blit : src:t -> dst:t -> unit
val zero : unit -> t
val one : unit -> t

val carry : t -> unit
(** One full reducing pass; iterate to fully reduce. *)

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

val mul_small : t -> t -> int -> unit
(** [mul_small o a c] is [o <- a * c] for a small constant
    [0 <= c < 2^17] (the ladder's 121665). *)

val invert : t -> t -> unit
(** [a^(p-2)] by Fermat (so 0 maps to 0), along ref10's addition chain:
    254 squarings and 11 multiplications. *)

val pow2523 : t -> t -> unit
(** [a^((p-5)/8)], the Edwards decompression square-root helper; shares
    [invert]'s chain up to [a^(2^250-1)]. *)

val parity : t -> int
val equal : t -> t -> bool
