(** Field arithmetic modulo [2^255 - 19] on 5×51-bit limbs in native
    ints (curve25519-donna's radix-2^51 representation, with
    mul/square working on radix-2^25.5 half-limbs in untagged machine
    words, because a 51×51-bit product overflows any word).  Shared by
    {!Curve25519} and {!Edwards25519}; differentially tested against the
    retained seed implementation [Fe25519_ref] (test/oracles) in
    [test/prop/].  X25519's Montgomery ladder is here too, as {!ladder},
    and the fixed-base comb's loop, as {!comb}: libraries are compiled
    [-opaque], so only a loop in this module can inline the kernels
    instead of making a closure call per operation.

    Operations write their result into the first argument; aliasing
    between output and inputs is allowed everywhere.  [mul], [square],
    [mul_small], [add], [sub] and [cswap] check that each of their
    arrays has at least 5 limbs, by one bounds-checked access per
    array, before they write anything.

    {2 Carry contract}

    - {e Carried} values have limbs in [\[0, 2^51 + 2^36)]: every output
      of [mul], [square], [mul_small] and [carry], and of [unpack].
      Limbs 1–4 of a product are below 2^51; limb 0 also takes the
      final carry, and with lazy inputs it reaches 2^51 + 2^33.9.
    - [add] and [sub] are lazy (no carry propagation).  [sub] adds 2p
      limb-wise to stay nonnegative, so its {e second} argument must be
      carried.
    - {b Input bound.}  [mul], [square] and [mul_small] accept operands
      whose limbs are in [\[0, 2^53.1)], and return carried values.
      That covers a lazy [add] of two carried values (< 2^52 + 2^37), a
      [sub] whose minuend is carried (< 2^52.6) or is such an [add]
      (< 2^53 + 2^37), and {!Edwards25519}'s two stacked adds
      G = D + C with D = 2Z (< 3 (2^51 + 2^36) < 2^52.6).  Every op
      sequence in the ladder and the Edwards formulas stays inside it.
    - {b Accumulator bound.}  [mul]/[square] sum ten radix-2^25.5
      accumulators h0..h9, by Karatsuba on the even/odd half-limb split
      (f = F_e(X) + 2^26 F_o(X), X = 2^51): three 5×5 products mod
      X^5 − 19, P1 = F_e·G_e, P2 = F_o·G_o and
      P3 = (F_e + F_o)(G_e + G_o), give h_2k = P1[k] + 2·P2[k−1]
      (h0 = P1[0] + 38·P2[4]) and h_2k+1 = P3[k] − P1[k] − P2[k].  Term
      by term these are the schoolbook's sums, so each h is the same
      integer and each output limb the same ([Fe25519_schoolbook],
      test/oracles, checks it limb for limb).  At that input bound
      every h is below 2^61.9 < 2^62, so a 63-bit int and a 64-bit word
      compute the same integers, and the one new intermediate, P3, is
      below 77·(2^27.66)^2 ≈ 2^61.6, which a word holds.  The untagged
      kernels' exactness rests on exactly these bounds. *)

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

val batch_invert : t array -> unit
(** Replace each element by its inverse, in place, for one {!invert}
    and three multiplications per element (Montgomery's trick).  As in
    [invert], 0 maps to 0: a zero element (any encoding of 0, such as
    p) is found on its canonical limbs and leaves the others intact.
    Constant time in the values.  A one-element array just runs
    [invert].  The elements must be distinct arrays. *)

val pow2523 : t -> t -> unit
(** [a^((p-5)/8)], the Edwards decompression square-root helper; shares
    [invert]'s chain up to [a^(2^250-1)]. *)

val parity : t -> int
val equal : t -> t -> bool

val ladder : bytes -> t -> x2:t -> z2:t -> unit
(** [ladder z x ~x2 ~z2] is RFC 7748's Montgomery ladder over the
    clamped scalar [z] (32 bytes, little-endian; bits 254 down to 0 are
    read) from the u-coordinate [x], stopped at its projective result:
    it leaves u(z·x) as the fraction [x2] / [z2], carried, for the
    caller to invert, alone or in a batch.  [x] is only read and must be
    neither [x2] nor [z2].  The same sequence of field operations and
    swaps for every scalar; it allocates only four field elements of
    scratch. *)

val comb : int array -> bytes -> x:t -> y:t -> z:t -> t:t -> unit
(** [comb table k ~x ~y ~z ~t] is {!Edwards25519.comb}'s loop: it
    writes [kP] to [(x : y : z : t)], extended coordinates, carried, for
    the point [P] whose table [table] is.  The table has 64 rows of 8
    entries of 15 ints: entry [j - 1] of row [i] is [j * 16^i * P] as
    the carried affine limbs of (y+x, y-x, 2dxy).  [k] is 32 bytes,
    little-endian, below 2^255 (otherwise [Invalid_argument]), recoded
    into 64 signed radix-16 digits; each costs a constant-time row
    select and one mixed addition, with no doubling.  The same
    sequence of field operations and table reads for every scalar; it
    allocates only ten field elements of scratch. *)
