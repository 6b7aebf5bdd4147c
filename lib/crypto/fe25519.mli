(** Field arithmetic modulo [2^255 - 19] on ten untagged 64-bit words
    in ref10's radix-2^25.5 layout (Bernstein's Curve25519 paper): word
    [i] is worth [2^ceil(25.5 i)], so even words sit at bit 51k and odd
    words at 51k + 26.  Shared by {!Curve25519} and {!Edwards25519};
    differentially tested against the retained seed implementation
    [Fe25519_ref] (test/oracles) in [test/prop/].  X25519's Montgomery
    ladder is here too, as {!ladder}, and the fixed-base comb's loop, as
    {!comb}: libraries are compiled [-opaque], so only a loop in this
    module can inline the kernels instead of making a closure call per
    operation.

    Operations write their result into the first argument; aliasing
    between output and inputs is allowed everywhere.  Every value of [t]
    is 80 bytes, so the kernels read and write its words unchecked.

    {2 Carry contract}

    - {e Carried} values have nonnegative words, even words below 2^26
      and odd words below 2^25, except w1, below 2^25 + 2^12 (it takes
      the carry chain's last carry): every output of [mul], [square],
      [mul_small] and [carry], and of [unpack].
    - [add] and [sub] are lazy (no carry propagation).  [sub] adds 2p
      word-wise (2^27 - 38 to w0, 2^27 - 2 to the other even words,
      2^26 - 2 to the odd ones) to stay nonnegative, so its {e second}
      argument must be carried.
    - {b Input bound.}  [mul], [square] and [mul_small] accept operands
      whose even words are below 2^28 and odd words below 2^27 + 2^13,
      and return carried values.  That covers a lazy [add] of two
      carried values (even words below 2^27), a [sub] whose minuend is
      carried (below 3 * 2^26) or is such an [add] (below 2^28 - 2, odd
      below 2^27 + 2^13 - 2), and {!Edwards25519}'s stacked
      D = 2Z, G = D + C (below 3 * 2^26) and F = D - C (below 2^28).
      Every op sequence in the ladder and the Edwards formulas stays
      inside it.
    - {b Accumulator bound.}  [mul]/[square] sum ten accumulators
      h0..h9 by Karatsuba on the even/odd split
      (f = F_e(X) + 2^26 F_o(X), X = 2^51): three 5×5 products mod
      X^5 − 19, P1 = F_e·G_e, P2 = F_o·G_o and
      P3 = (F_e + F_o)(G_e + G_o), give h_2k = P1[k] + 2·P2[k−1]
      (h0 = P1[0] + 38·P2[4]) and h_2k+1 = P3[k] − P1[k] − P2[k].  Term
      by term these are the schoolbook's sums, so each h is the same
      integer and each output word the same ([Fe25519_schoolbook],
      test/oracles, checks it word for word).  At that input bound every
      h is below 2^62.97 < 2^63, so a signed 64-bit word holds it, and
      the carry chain's shifts and carries stay exact; a product at the
      bound of E·F, the largest the Edwards formulas form, reaches
      2^62.55.  P3 may wrap a word, and h_2k+1 is still exact modulo
      2^64, hence exact.  The kernels' exactness rests on exactly these
      bounds. *)

type t
(** Ten words, 80 bytes. *)

val create : unit -> t

val create_array : int -> t array
(** [n] fresh zero elements, in an array made without forcing a minor
    collection however long it is. *)

val of_words : int array -> t
(** From the ten words; [Invalid_argument] for another count. *)

val words : t -> int array
(** The ten words. *)

val of_limbs : t -> int array -> int -> unit
(** [of_limbs o l off] sets [o] to the five radix-2^51 limbs
    [l.(off)] .. [l.(off + 4)], each nonnegative and below 2^53, split
    at bit 26 into their even and odd words: the layout of {!comb}'s
    table. *)

val to_limbs : int array -> int -> t -> unit
(** [to_limbs l off a] writes the carried [a] as five radix-2^51 limbs,
    [w_2k + 2^26 w_2k+1], to [l.(off)] .. [l.(off + 4)]; {!of_limbs}
    reads them back word for word. *)

val copy : t -> t
val blit : src:t -> dst:t -> unit
val zero : unit -> t
val one : unit -> t

val carry : t -> unit
(** One full reducing pass; iterate to fully reduce. *)

val cswap : t -> t -> int -> unit
(** Constant-time swap when the selector bit is 1. *)

val pack : t -> bytes
(** Canonical 32-byte little-endian encoding (fully reduced), written
    as four 64-bit words. *)

val unpack : bytes -> t
(** From the first 32 bytes, read as four 64-bit words; masks the top
    bit, per both RFC 7748 and RFC 8032.  [Invalid_argument] if there
    are fewer. *)

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
    p) is found on its canonical words and leaves the others intact.
    Constant time in the values.  A one-element array just runs
    [invert].  The elements must be distinct values. *)

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
    the carried affine coordinates (y+x, y-x, 2dxy), each as five
    radix-2^51 limbs ({!to_limbs}), which the select splits into words
    as it picks them.  [k] is 32 bytes,
    little-endian, below 2^255 (otherwise [Invalid_argument]), recoded
    into 64 signed radix-16 digits; each costs a constant-time row
    select and one mixed addition, with no doubling.  The same
    sequence of field operations and table reads for every scalar; it
    allocates only ten field elements of scratch. *)
