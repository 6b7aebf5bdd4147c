(* Field arithmetic modulo 2^255 - 19 on ten untagged 64-bit words in
   ref10's radix-2^25.5 layout, with lazy carries, and the two X25519
   loops over it: the Montgomery ladder and the fixed-base comb.  Shared
   by Curve25519 and the Edwards-curve arithmetic (Edwards25519: Ed25519
   and the comb's tables); this is the hottest code in the system —
   every peeled onion layer costs one variable-base scalar
   multiplication, i.e. ~2,560 [mul]s and [square]s (2,295 in [ladder]
   below, 265 in [invert], which a batch of operations shares: see
   [batch_invert]), and a freshly wrapped layer two comb multiplications
   and no ladder (448 [mul]s each in [comb] below, plus the inversion:
   the fresh key on the base point's table, the DH on the server key's;
   see Edwards25519 and Curve25519.shared_static).

   Representation and carry discipline
   -----------------------------------
   An element is the 80 bytes of ten machine words w0..w9, in the
   host's byte order, worth sum w_i 2^ceil(25.5 i): weights 0, 26, 51,
   77, 102, ..., 230 (Bernstein's Curve25519 paper, ref10's fe).  After
   a carry, even words hold 26 bits and odd words 25.  The contract
   (bounds, and which lazy values may enter a multiplication) is stated
   once, in fe25519.mli.

   [sub] keeps words nonnegative by adding 2p word-wise (2^27 - 38 to
   w0, 2^27 - 2 to the other even words, 2^26 - 2 to the odd ones)
   before subtracting; its SECOND argument must therefore be carried.
   Every call site in Curve25519 and Edwards25519 satisfies this
   (subtrahends are always fresh mul/square outputs, explicitly
   [carry]ed values, or constants), and test/prop/ checks the resulting
   values differentially against the seed implementation
   (test/oracles/fe25519_ref).

   Multiplication
   --------------
   The product of words i and j belongs to word (i+j) mod 10, with
   coefficient 2 when i and j are both odd (w(i)+w(j) = w(i+j)+1) and
   19 when i+j >= 10 (2^255 = 19 mod p); summing those 100 terms
   straight into ten accumulators h0..h9 is ref10's schoolbook schedule
   (kept as test/oracles/fe25519_schoolbook).

   [mul] sums the same ten accumulators by Karatsuba on the even/odd
   split.  The even words sit at weights 51k and the odd ones at
   51k + 26, so with X = 2^51, f = F_e(X) + 2^26 F_o(X) for
   F_e = sum w_2k X^k and F_o = sum w_2k+1 X^k.  Three 5x5 products mod
   X^5 - 19, P1 = F_e G_e, P2 = F_o G_o and P3 = (F_e + F_o)(G_e + G_o),
   give

     h_2k   = P1[k] + 2 P2[k-1]    (h0 = P1[0] + 38 P2[4])
     h_2k+1 = P3[k] - P1[k] - P2[k]

   since 2^26 2^26 = 2 X and X^5 = 19.  Term by term this is the
   schoolbook's sum: an (even, even) term lands in P1 at (i+j)/2, times
   19 past X^5; an (odd, odd) one in P2, shifted up one X and doubled,
   so times 2, or 38 when it wraps; and P3 - P1 - P2 is exactly the
   (even, odd) and (odd, even) cross terms.  So every h is the same
   integer as the schoolbook's, and the output words are the same, not
   just their field value: 75 word products instead of 100.  A square
   takes 45 instead of 55, each 5x5 square needing 15.

   The three products run one after another, each loading only the
   words it needs: P1 over the even words, P2 over the odd ones, then
   P3 over their sums.  As each P3[k] completes, h_2k+1 is known and
   the carry chain advances through it, so the low output words are
   stored while the high ones are still being summed (every load has
   happened by then, so the output may alias either operand).

   Accumulators stay below 2^63: at the input bound (even words below
   2^28, odd below 2^27 + 2^13), h0, with one plain and four 19-fold
   (even, even) terms and five 38-fold (odd, odd) ones, is below
   2^62.97, and every other h below 2^62.7.  P3 multiplies sums of an
   even and an odd word and may wrap a 64-bit word; P3 - P1 - P2 is then
   still exact, because word arithmetic is exact modulo 2^64 and the
   true h fits.

   Untagged kernels
   ----------------
   A native int carries a tag bit, and the compiler (ocamlopt 5.1,
   without flambda) fixes it up around every multiply and shift, so the
   words are stored untagged and every kernel runs on [nativeint]
   locals over {!Word}'s primitives: a word is loaded straight into a
   register and stored straight back, with nothing to split, recombine,
   untag or retag.  Without flambda, ocamlopt keeps a let-bound
   [nativeint] unboxed as long as it is only passed to primitives, so:

     - the operators are the compiler's primitives ({!Word}), never
       closures, and the loads and stores are written inline;
     - [reduce10] is [@inline]: an out-of-line call would box its ten
       word arguments (~30 words per call);
     - the products are summed in let chains, one coefficient at a
       time, so that the compiler does not spill every product of a sum
       before adding it.

   The loads and stores are unchecked: [t] is abstract, and every value
   of it is made here, 80 bytes long.

   The ladder lives here, not in Curve25519, because libraries are
   compiled [-opaque] under dune's default profile: a kernel called from
   another module cannot be inlined and goes through [caml_applyN],
   ~5,100 calls per scalar multiplication.  Here every kernel it runs is
   inlined into its loop, which makes no call at all (CI checks the
   object code for closure calls).  The fixed-base comb's loop lives
   here for the same reason ([comb]: it made ~870 such calls from
   Edwards25519).  [add], [sub], [cswap] and [mul_small] are [@inline];
   [mul] and [square] are inlined through [mul_body] and [square_body],
   so the inversion chain keeps calling one out-of-line copy.

   The kernels allocate nothing (a tier-1 test counts minor words).
   Differentially tested against Fe25519_ref over thousands of seeded
   cases, at the input bound too, and word for word against the
   schoolbook kernels (test/prop/prop_fe.ml). *)

type t = bytes (* ten words, radix 2^25.5 *)

let create () = Bytes.make 80 '\000'

(* Made from [Bytes.empty], a static value, so that an array of more than
   256 elements does not force a minor collection (caml_make_vect). *)
let create_array n =
  let a = Array.make n Bytes.empty in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (create ())
  done;
  a

let copy = Bytes.copy
let blit ~src ~dst = Bytes.blit src 0 dst 0 80
let zero () = create ()

let one () =
  let a = create () in
  Word.set64u a 0 1L;
  a

let fe_one = one ()

let of_words w =
  if Array.length w <> 10 then invalid_arg "Fe25519.of_words";
  let o = create () in
  Array.iteri (fun i x -> Word.set64u o (8 * i) (Int64.of_int x)) w;
  o

let words (a : t) =
  Array.init 10 (fun i -> Int64.to_int (Word.get64u a (8 * i)))

(* Radix-2^51 limbs, the comb table's layout: limb k is
   w_2k + 2^26 w_2k+1, which splits back exactly while w_2k < 2^26. *)
let to_limbs (l : int array) off (a : t) =
  for k = 0 to 4 do
    let e = Int64.to_int (Word.get64u a (16 * k))
    and o = Int64.to_int (Word.get64u a ((16 * k) + 8)) in
    l.(off + k) <- e + (o lsl 26)
  done

let of_limbs (o : t) (l : int array) off =
  for k = 0 to 4 do
    let x = l.(off + k) in
    Word.set64u o (16 * k) (Int64.of_int (x land 0x3ffffff));
    Word.set64u o ((16 * k) + 8) (Int64.of_int (x asr 26))
  done

(* The kernels below run on {!Word}'s machine-word primitives. *)
let mask26 = 0x3ffffffn
let mask25 = 0x1ffffffn

(* Carry the ten accumulators into [o], sequentially from h0 to h9, the
   carry out of h9 times 19 back into h0, and once more from h0 into h1
   (arithmetic shifts: a negative accumulator borrows from the next).
   Shared by [mul_small] and [carry]; [mul] and [square] run the same
   chain interleaved with their last phase.  Inlined, because an
   out-of-line call would box its ten word arguments. *)
let[@inline] reduce10 (o : t) h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 =
  let open Word in
  let c = h0 asr 26 in
  let h0 = h0 - (c lsl 26) and h1 = h1 + c in
  let c = h1 asr 25 in
  let h1 = h1 - (c lsl 25) and h2 = h2 + c in
  let c = h2 asr 26 in
  let h2 = h2 - (c lsl 26) and h3 = h3 + c in
  let c = h3 asr 25 in
  let h3 = h3 - (c lsl 25) and h4 = h4 + c in
  let c = h4 asr 26 in
  let h4 = h4 - (c lsl 26) and h5 = h5 + c in
  let c = h5 asr 25 in
  let h5 = h5 - (c lsl 25) and h6 = h6 + c in
  let c = h6 asr 26 in
  let h6 = h6 - (c lsl 26) and h7 = h7 + c in
  let c = h7 asr 25 in
  let h7 = h7 - (c lsl 25) and h8 = h8 + c in
  let c = h8 asr 26 in
  let h8 = h8 - (c lsl 26) and h9 = h9 + c in
  let c = h9 asr 25 in
  let h9 = h9 - (c lsl 25) and h0 = h0 + (19n * c) in
  let c = h0 asr 26 in
  let h0 = h0 - (c lsl 26) and h1 = h1 + c in
  set64u o 0 (to_int64 h0);
  set64u o 8 (to_int64 h1);
  set64u o 16 (to_int64 h2);
  set64u o 24 (to_int64 h3);
  set64u o 32 (to_int64 h4);
  set64u o 40 (to_int64 h5);
  set64u o 48 (to_int64 h6);
  set64u o 56 (to_int64 h7);
  set64u o 64 (to_int64 h8);
  set64u o 72 (to_int64 h9)

(* [o <- a] after one full reducing pass: even words < 2^26, odd words
   < 2^25, and w1 < 2^25 + 2^12 (fe25519.mli). *)
let[@inline] carry_from (o : t) (a : t) =
  let open Word in
  reduce10 o
    (of_int64 (get64u a 0))
    (of_int64 (get64u a 8))
    (of_int64 (get64u a 16))
    (of_int64 (get64u a 24))
    (of_int64 (get64u a 32))
    (of_int64 (get64u a 40))
    (of_int64 (get64u a 48))
    (of_int64 (get64u a 56))
    (of_int64 (get64u a 64))
    (of_int64 (get64u a 72))

let carry (o : t) = carry_from o o

(* Swap word [off] of [p] and [q] under the mask [c]. *)
let[@inline] cswap_word (p : t) (q : t) c off =
  let open Word in
  let pi = of_int64 (get64u p off) and qi = of_int64 (get64u q off) in
  let t = c land (pi lxor qi) in
  set64u p off (to_int64 (pi lxor t));
  set64u q off (to_int64 (qi lxor t))

(* Constant-time conditional swap when b = 1. *)
let[@inline] cswap (p : t) (q : t) b =
  let c = Word.of_int (-b) (* all ones iff b = 1 *) in
  cswap_word p q c 0;
  cswap_word p q c 8;
  cswap_word p q c 16;
  cswap_word p q c 24;
  cswap_word p q c 32;
  cswap_word p q c 40;
  cswap_word p q c 48;
  cswap_word p q c 56;
  cswap_word p q c 64;
  cswap_word p q c 72

(* [o <- a] fully reduced: every word in range and the value below p.
   One carry pass leaves a value v below 2^255 + 2^38; q = [v >= p] is
   then the carry out of v + 19 through the ten words, and v - q p is
   v + 19 q carried, less the carry out of w9, which is q. *)
let[@inline] canonical_into (o : t) (a : t) =
  carry_from o a;
  let open Word in
  let h0 = of_int64 (get64u o 0) and h1 = of_int64 (get64u o 8)
  and h2 = of_int64 (get64u o 16) and h3 = of_int64 (get64u o 24)
  and h4 = of_int64 (get64u o 32) and h5 = of_int64 (get64u o 40)
  and h6 = of_int64 (get64u o 48) and h7 = of_int64 (get64u o 56)
  and h8 = of_int64 (get64u o 64) and h9 = of_int64 (get64u o 72) in
  let q = (h0 + 19n) asr 26 in
  let q = (h1 + q) asr 25 in
  let q = (h2 + q) asr 26 in
  let q = (h3 + q) asr 25 in
  let q = (h4 + q) asr 26 in
  let q = (h5 + q) asr 25 in
  let q = (h6 + q) asr 26 in
  let q = (h7 + q) asr 25 in
  let q = (h8 + q) asr 26 in
  let q = (h9 + q) asr 25 in
  let h0 = h0 + (19n * q) in
  let h1 = h1 + (h0 asr 26) and h0 = h0 land mask26 in
  let h2 = h2 + (h1 asr 25) and h1 = h1 land mask25 in
  let h3 = h3 + (h2 asr 26) and h2 = h2 land mask26 in
  let h4 = h4 + (h3 asr 25) and h3 = h3 land mask25 in
  let h5 = h5 + (h4 asr 26) and h4 = h4 land mask26 in
  let h6 = h6 + (h5 asr 25) and h5 = h5 land mask25 in
  let h7 = h7 + (h6 asr 26) and h6 = h6 land mask26 in
  let h8 = h8 + (h7 asr 25) and h7 = h7 land mask25 in
  let h9 = h9 + (h8 asr 26) and h8 = h8 land mask26 in
  let h9 = h9 land mask25 in
  set64u o 0 (to_int64 h0);
  set64u o 8 (to_int64 h1);
  set64u o 16 (to_int64 h2);
  set64u o 24 (to_int64 h3);
  set64u o 32 (to_int64 h4);
  set64u o 40 (to_int64 h5);
  set64u o 48 (to_int64 h6);
  set64u o 56 (to_int64 h7);
  set64u o 64 (to_int64 h8);
  set64u o 72 (to_int64 h9)

(* Eight bytes little-endian, whatever the host's byte order (a branch
   on a compile-time constant, folded away). *)
let[@inline] get_le b off =
  let x = Word.get64u b off in
  if Word.big_endian () then Word.bswap64 x else x

let[@inline] set_le b off x =
  Word.set64u b off (if Word.big_endian () then Word.bswap64 x else x)

(* The canonical value's 255 bits as four little-endian words. *)
let pack (n : t) =
  let c = create () in
  canonical_into c n;
  let open Word in
  let w0 = of_int64 (get64u c 0) and w1 = of_int64 (get64u c 8)
  and w2 = of_int64 (get64u c 16) and w3 = of_int64 (get64u c 24)
  and w4 = of_int64 (get64u c 32) and w5 = of_int64 (get64u c 40)
  and w6 = of_int64 (get64u c 48) and w7 = of_int64 (get64u c 56)
  and w8 = of_int64 (get64u c 64) and w9 = of_int64 (get64u c 72) in
  let o = Bytes.create 32 in
  set_le o 0 (to_int64 (w0 lor (w1 lsl 26) lor (w2 lsl 51)));
  set_le o 8 (to_int64 ((w2 lsr 13) lor (w3 lsl 13) lor (w4 lsl 38)));
  set_le o 16 (to_int64 (w5 lor (w6 lsl 25) lor (w7 lsl 51)));
  set_le o 24 (to_int64 ((w7 lsr 13) lor (w8 lsl 12) lor (w9 lsl 38)));
  o

let unpack (n : bytes) : t =
  if Bytes.length n < 32 then invalid_arg "Fe25519.unpack";
  let open Word in
  let x0 = of_int64 (get_le n 0) and x1 = of_int64 (get_le n 8)
  and x2 = of_int64 (get_le n 16) and x3 = of_int64 (get_le n 24) in
  let o = create () in
  set64u o 0 (to_int64 (x0 land mask26));
  set64u o 8 (to_int64 ((x0 lsr 26) land mask25));
  set64u o 16 (to_int64 (((x0 lsr 51) lor (x1 lsl 13)) land mask26));
  set64u o 24 (to_int64 ((x1 lsr 13) land mask25));
  set64u o 32 (to_int64 (x1 lsr 38));
  set64u o 40 (to_int64 (x2 land mask25));
  set64u o 48 (to_int64 ((x2 lsr 25) land mask26));
  set64u o 56 (to_int64 (((x2 lsr 51) lor (x3 lsl 13)) land mask25));
  set64u o 64 (to_int64 ((x3 lsr 12) land mask26));
  (* Bit 255 is masked here. *)
  set64u o 72 (to_int64 ((x3 lsr 38) land mask25));
  o

let[@inline] add_word (o : t) (a : t) (b : t) off =
  let open Word in
  set64u o off (to_int64 (of_int64 (get64u a off) + of_int64 (get64u b off)))

let[@inline] add (o : t) (a : t) (b : t) =
  add_word o a b 0;
  add_word o a b 8;
  add_word o a b 16;
  add_word o a b 24;
  add_word o a b 32;
  add_word o a b 40;
  add_word o a b 48;
  add_word o a b 56;
  add_word o a b 64;
  add_word o a b 72

(* 2p word-wise; adding it before subtracting keeps words nonnegative
   for any carried subtrahend (see the carry discipline above). *)
let two_p0 = 0x7ffffda (* 2^27 - 38 *)
let two_p_even = 0x7fffffe (* 2^27 - 2 *)
let two_p_odd = 0x3fffffe (* 2^26 - 2 *)

let[@inline] sub_word (o : t) (a : t) (b : t) off two_p =
  let open Word in
  set64u o off
    (to_int64
       (of_int64 (get64u a off) + of_int two_p - of_int64 (get64u b off)))

let[@inline] sub (o : t) (a : t) (b : t) =
  sub_word o a b 0 two_p0;
  sub_word o a b 8 two_p_odd;
  sub_word o a b 16 two_p_even;
  sub_word o a b 24 two_p_odd;
  sub_word o a b 32 two_p_even;
  sub_word o a b 40 two_p_odd;
  sub_word o a b 48 two_p_even;
  sub_word o a b 56 two_p_odd;
  sub_word o a b 64 two_p_even;
  sub_word o a b 72 two_p_odd

(* Karatsuba on the even/odd split (see the header), one phase after
   another: P1 over the even words, P2 over the odd words, then P3 over
   their sums, each loading only the words it needs and summing each
   coefficient as a chain of [let]s in order of its left operand, so
   that the compiler does not spill every product of a sum before
   adding it.  A wrapped term (i + j >= 5) takes its right operand
   times 19.  Once P3's operands are loaded, every load has happened,
   and the carry chain runs through each h_2k+1 as P3[k] completes,
   storing the words below it.

   [mul_body] and [square_body] are inlined into [ladder] and [comb];
   every other caller, in this module too, calls the out-of-line [mul]
   and [square], so those two loops hold the only extra copies. *)
let[@inline] mul_body (o : t) (a : t) (b : t) =
  let open Word in
  (* P1 = F_e G_e *)
  let f0 = of_int64 (get64u a 0) and f2 = of_int64 (get64u a 16)
  and f4 = of_int64 (get64u a 32) and f6 = of_int64 (get64u a 48)
  and f8 = of_int64 (get64u a 64) in
  let g0 = of_int64 (get64u b 0) and g2 = of_int64 (get64u b 16)
  and g4 = of_int64 (get64u b 32) and g6 = of_int64 (get64u b 48)
  and g8 = of_int64 (get64u b 64) in
  let g2_19 = 19n * g2 and g4_19 = 19n * g4 in
  let g6_19 = 19n * g6 and g8_19 = 19n * g8 in
  let p = f0 * g0 in
  let p = p + (f2 * g8_19) in
  let p = p + (f4 * g6_19) in
  let p = p + (f6 * g4_19) in
  let p1_0 = p + (f8 * g2_19) in
  let p = f0 * g2 in
  let p = p + (f2 * g0) in
  let p = p + (f4 * g8_19) in
  let p = p + (f6 * g6_19) in
  let p1_1 = p + (f8 * g4_19) in
  let p = f0 * g4 in
  let p = p + (f2 * g2) in
  let p = p + (f4 * g0) in
  let p = p + (f6 * g8_19) in
  let p1_2 = p + (f8 * g6_19) in
  let p = f0 * g6 in
  let p = p + (f2 * g4) in
  let p = p + (f4 * g2) in
  let p = p + (f6 * g0) in
  let p1_3 = p + (f8 * g8_19) in
  let p = f0 * g8 in
  let p = p + (f2 * g6) in
  let p = p + (f4 * g4) in
  let p = p + (f6 * g2) in
  let p1_4 = p + (f8 * g0) in
  (* P2 = F_o G_o *)
  let f1 = of_int64 (get64u a 8) and f3 = of_int64 (get64u a 24)
  and f5 = of_int64 (get64u a 40) and f7 = of_int64 (get64u a 56)
  and f9 = of_int64 (get64u a 72) in
  let g1 = of_int64 (get64u b 8) and g3 = of_int64 (get64u b 24)
  and g5 = of_int64 (get64u b 40) and g7 = of_int64 (get64u b 56)
  and g9 = of_int64 (get64u b 72) in
  let g3_19 = 19n * g3 and g5_19 = 19n * g5 in
  let g7_19 = 19n * g7 and g9_19 = 19n * g9 in
  let p = f1 * g1 in
  let p = p + (f3 * g9_19) in
  let p = p + (f5 * g7_19) in
  let p = p + (f7 * g5_19) in
  let p2_0 = p + (f9 * g3_19) in
  let p = f1 * g3 in
  let p = p + (f3 * g1) in
  let p = p + (f5 * g9_19) in
  let p = p + (f7 * g7_19) in
  let p2_1 = p + (f9 * g5_19) in
  let p = f1 * g5 in
  let p = p + (f3 * g3) in
  let p = p + (f5 * g1) in
  let p = p + (f7 * g9_19) in
  let p2_2 = p + (f9 * g7_19) in
  let p = f1 * g7 in
  let p = p + (f3 * g5) in
  let p = p + (f5 * g3) in
  let p = p + (f7 * g1) in
  let p2_3 = p + (f9 * g9_19) in
  let p = f1 * g9 in
  let p = p + (f3 * g7) in
  let p = p + (f5 * g5) in
  let p = p + (f7 * g3) in
  let p2_4 = p + (f9 * g1) in
  let h0 = p1_0 + (38n * p2_4) and h2 = p1_1 + (2n * p2_0) in
  let h4 = p1_2 + (2n * p2_1) and h6 = p1_3 + (2n * p2_2) in
  let h8 = p1_4 + (2n * p2_3) in
  let m0 = p1_0 + p2_0 and m1 = p1_1 + p2_1 and m2 = p1_2 + p2_2 in
  let m3 = p1_3 + p2_3 and m4 = p1_4 + p2_4 in
  (* P3 = (F_e + F_o)(G_e + G_o), and h_2k+1 = P3[k] - P1[k] - P2[k] *)
  let s0 = of_int64 (get64u a 0) + of_int64 (get64u a 8)
  and s1 = of_int64 (get64u a 16) + of_int64 (get64u a 24)
  and s2 = of_int64 (get64u a 32) + of_int64 (get64u a 40)
  and s3 = of_int64 (get64u a 48) + of_int64 (get64u a 56)
  and s4 = of_int64 (get64u a 64) + of_int64 (get64u a 72) in
  let t0 = of_int64 (get64u b 0) + of_int64 (get64u b 8)
  and t1 = of_int64 (get64u b 16) + of_int64 (get64u b 24)
  and t2 = of_int64 (get64u b 32) + of_int64 (get64u b 40)
  and t3 = of_int64 (get64u b 48) + of_int64 (get64u b 56)
  and t4 = of_int64 (get64u b 64) + of_int64 (get64u b 72) in
  let t1_19 = 19n * t1 and t2_19 = 19n * t2 in
  let t3_19 = 19n * t3 and t4_19 = 19n * t4 in
  let p = s0 * t0 in
  let p = p + (s1 * t4_19) in
  let p = p + (s2 * t3_19) in
  let p = p + (s3 * t2_19) in
  let p = p + (s4 * t1_19) in
  let h1 = p - m0 in
  let c = h0 asr 26 in
  let h0 = h0 - (c lsl 26) and h1 = h1 + c in
  let c = h1 asr 25 in
  let h1 = h1 - (c lsl 25) and h2 = h2 + c in
  let p = s0 * t1 in
  let p = p + (s1 * t0) in
  let p = p + (s2 * t4_19) in
  let p = p + (s3 * t3_19) in
  let p = p + (s4 * t2_19) in
  let h3 = p - m1 in
  let c = h2 asr 26 in
  let h3 = h3 + c in
  set64u o 16 (to_int64 (h2 - (c lsl 26)));
  let c = h3 asr 25 in
  let h4 = h4 + c in
  set64u o 24 (to_int64 (h3 - (c lsl 25)));
  let p = s0 * t2 in
  let p = p + (s1 * t1) in
  let p = p + (s2 * t0) in
  let p = p + (s3 * t4_19) in
  let p = p + (s4 * t3_19) in
  let h5 = p - m2 in
  let c = h4 asr 26 in
  let h5 = h5 + c in
  set64u o 32 (to_int64 (h4 - (c lsl 26)));
  let c = h5 asr 25 in
  let h6 = h6 + c in
  set64u o 40 (to_int64 (h5 - (c lsl 25)));
  let p = s0 * t3 in
  let p = p + (s1 * t2) in
  let p = p + (s2 * t1) in
  let p = p + (s3 * t0) in
  let p = p + (s4 * t4_19) in
  let h7 = p - m3 in
  let c = h6 asr 26 in
  let h7 = h7 + c in
  set64u o 48 (to_int64 (h6 - (c lsl 26)));
  let c = h7 asr 25 in
  let h8 = h8 + c in
  set64u o 56 (to_int64 (h7 - (c lsl 25)));
  let p = s0 * t4 in
  let p = p + (s1 * t3) in
  let p = p + (s2 * t2) in
  let p = p + (s3 * t1) in
  let p = p + (s4 * t0) in
  let h9 = p - m4 in
  let c = h8 asr 26 in
  let h9 = h9 + c in
  set64u o 64 (to_int64 (h8 - (c lsl 26)));
  let c = h9 asr 25 in
  let h0 = h0 + (19n * c) in
  set64u o 72 (to_int64 (h9 - (c lsl 25)));
  let c = h0 asr 26 in
  set64u o 0 (to_int64 (h0 - (c lsl 26)));
  set64u o 8 (to_int64 (h1 + c))

let mul o a b = mul_body o a b

(* Dedicated squaring: the same phases, with each 5x5 square taking 15
   products, the middle F_e F_o + F_o F_e as
   (F_e + F_o)^2 - F_e^2 - F_o^2, and 45 products in all.  The
   Montgomery ladder does four squarings per scalar bit and [invert]
   does 254 in a row, so this is worth the duplication.  For inputs
   a_0..a_4 = (w0, w2, .., w8), (w1, w3, .., w9) and their sums, each
   coefficient is its square terms plus twice its cross terms, doubled
   once per sum rather than per operand, which keeps fewer multiples
   live:

     S[0] = a0 a0 + 2 (a1 19a4 + a2 19a3)   S[3] = a4 19a4 + 2 (a0 a3 + a1 a2)
     S[1] = a3 19a3 + 2 (a0 a1 + a2 19a4)   S[4] = a2 a2 + 2 (a0 a4 + a1 a3)
     S[2] = a1 a1 + 2 (a0 a2 + a3 19a4) *)
let[@inline] square_body (o : t) (a : t) =
  let open Word in
  (* S_e = F_e^2 *)
  let f0 = of_int64 (get64u a 0) and f2 = of_int64 (get64u a 16)
  and f4 = of_int64 (get64u a 32) and f6 = of_int64 (get64u a 48)
  and f8 = of_int64 (get64u a 64) in
  let f6_19 = 19n * f6 and f8_19 = 19n * f8 in
  let p = f2 * f8_19 in
  let p = p + (f4 * f6_19) in
  let e0 = (2n * p) + (f0 * f0) in
  let p = f0 * f2 in
  let p = p + (f4 * f8_19) in
  let e1 = (2n * p) + (f6 * f6_19) in
  let p = f0 * f4 in
  let p = p + (f6 * f8_19) in
  let e2 = (2n * p) + (f2 * f2) in
  let p = f0 * f6 in
  let p = p + (f2 * f4) in
  let e3 = (2n * p) + (f8 * f8_19) in
  let p = f0 * f8 in
  let p = p + (f2 * f6) in
  let e4 = (2n * p) + (f4 * f4) in
  (* S_o = F_o^2 *)
  let f1 = of_int64 (get64u a 8) and f3 = of_int64 (get64u a 24)
  and f5 = of_int64 (get64u a 40) and f7 = of_int64 (get64u a 56)
  and f9 = of_int64 (get64u a 72) in
  let f7_19 = 19n * f7 and f9_19 = 19n * f9 in
  let p = f3 * f9_19 in
  let p = p + (f5 * f7_19) in
  let d0 = (2n * p) + (f1 * f1) in
  let p = f1 * f3 in
  let p = p + (f5 * f9_19) in
  let d1 = (2n * p) + (f7 * f7_19) in
  let p = f1 * f5 in
  let p = p + (f7 * f9_19) in
  let d2 = (2n * p) + (f3 * f3) in
  let p = f1 * f7 in
  let p = p + (f3 * f5) in
  let d3 = (2n * p) + (f9 * f9_19) in
  let p = f1 * f9 in
  let p = p + (f3 * f7) in
  let d4 = (2n * p) + (f5 * f5) in
  let h0 = e0 + (38n * d4) and h2 = e1 + (2n * d0) in
  let h4 = e2 + (2n * d1) and h6 = e3 + (2n * d2) in
  let h8 = e4 + (2n * d3) in
  let m0 = e0 + d0 and m1 = e1 + d1 and m2 = e2 + d2 in
  let m3 = e3 + d3 and m4 = e4 + d4 in
  (* (F_e + F_o)^2, and h_2k+1 = S[k] - S_e[k] - S_o[k] *)
  let s0 = of_int64 (get64u a 0) + of_int64 (get64u a 8)
  and s1 = of_int64 (get64u a 16) + of_int64 (get64u a 24)
  and s2 = of_int64 (get64u a 32) + of_int64 (get64u a 40)
  and s3 = of_int64 (get64u a 48) + of_int64 (get64u a 56)
  and s4 = of_int64 (get64u a 64) + of_int64 (get64u a 72) in
  let s3_19 = 19n * s3 and s4_19 = 19n * s4 in
  let p = s1 * s4_19 in
  let p = p + (s2 * s3_19) in
  let h1 = (2n * p) + (s0 * s0) - m0 in
  let c = h0 asr 26 in
  let h0 = h0 - (c lsl 26) and h1 = h1 + c in
  let c = h1 asr 25 in
  let h1 = h1 - (c lsl 25) and h2 = h2 + c in
  let p = s0 * s1 in
  let p = p + (s2 * s4_19) in
  let h3 = (2n * p) + (s3 * s3_19) - m1 in
  let c = h2 asr 26 in
  let h3 = h3 + c in
  set64u o 16 (to_int64 (h2 - (c lsl 26)));
  let c = h3 asr 25 in
  let h4 = h4 + c in
  set64u o 24 (to_int64 (h3 - (c lsl 25)));
  let p = s0 * s2 in
  let p = p + (s3 * s4_19) in
  let h5 = (2n * p) + (s1 * s1) - m2 in
  let c = h4 asr 26 in
  let h5 = h5 + c in
  set64u o 32 (to_int64 (h4 - (c lsl 26)));
  let c = h5 asr 25 in
  let h6 = h6 + c in
  set64u o 40 (to_int64 (h5 - (c lsl 25)));
  let p = s0 * s3 in
  let p = p + (s1 * s2) in
  let h7 = (2n * p) + (s4 * s4_19) - m3 in
  let c = h6 asr 26 in
  let h7 = h7 + c in
  set64u o 48 (to_int64 (h6 - (c lsl 26)));
  let c = h7 asr 25 in
  let h8 = h8 + c in
  set64u o 56 (to_int64 (h7 - (c lsl 25)));
  let p = s0 * s4 in
  let p = p + (s1 * s3) in
  let h9 = (2n * p) + (s2 * s2) - m4 in
  let c = h8 asr 26 in
  let h9 = h9 + c in
  set64u o 64 (to_int64 (h8 - (c lsl 26)));
  let c = h9 asr 25 in
  let h0 = h0 + (19n * c) in
  set64u o 72 (to_int64 (h9 - (c lsl 25)));
  let c = h0 asr 26 in
  set64u o 0 (to_int64 (h0 - (c lsl 26)));
  set64u o 8 (to_int64 (h1 + c))

let square o a = square_body o a

(* Multiply by a small nonnegative constant (c < 2^17 covers the
   ladder's curve constant 121665 = (A-2)/4): ten products, then the
   carry chain. *)
let[@inline] mul_small (o : t) (a : t) c =
  let open Word in
  let c = of_int c in
  reduce10 o
    (of_int64 (get64u a 0) * c)
    (of_int64 (get64u a 8) * c)
    (of_int64 (get64u a 16) * c)
    (of_int64 (get64u a 24) * c)
    (of_int64 (get64u a 32) * c)
    (of_int64 (get64u a 40) * c)
    (of_int64 (get64u a 48) * c)
    (of_int64 (get64u a 56) * c)
    (of_int64 (get64u a 64) * c)
    (of_int64 (get64u a 72) * c)

(* RFC 7748's Montgomery ladder, up to its projective result (see
   fe25519.mli).  As in RFC 7748 §5, the pairs stay swapped between bits
   and are swapped on [prev lxor r], the change in bit, with one final
   swap after the loop.  Every kernel it runs is inlined into its loop,
   which makes no call (see the header). *)
let ladder z (x : t) ~x2 ~z2 =
  let a = x2
  and b = copy x
  and c = z2
  and d = one ()
  and e = create ()
  and f = create () in
  blit ~src:d ~dst:a;
  Bytes.fill c 0 80 '\000';
  let prev = ref 0 in
  for i = 254 downto 0 do
    let r = (Char.code (Bytes.get z (i lsr 3)) lsr (i land 7)) land 1 in
    cswap a b (!prev lxor r);
    cswap c d (!prev lxor r);
    prev := r;
    add e a c;
    sub a a c;
    add c b d;
    sub b b d;
    square_body d e;
    square_body f a;
    mul_body a c a;
    mul_body c b e;
    add e a c;
    sub a a c;
    square_body b a;
    sub c d f;
    mul_small a c 121665;
    add a a d;
    mul_body c c a;
    mul_body a d f;
    mul_body d b x;
    square_body b e
  done;
  cswap a b !prev;
  cswap c d !prev

(* All ones iff a = b, for 0 <= a, b < 16: (0 - 1) lsr 62 = 1 and
   (1..15 - 1) lsr 62 = 0. *)
let[@inline] eq_mask a b = -(((a lxor b) - 1) lsr 62)

(* Limb [off] of the one row entry whose mask is all ones (0 if none
   is), reading all eight: entry j's limb sits 15 j ints further on. *)
let[@inline] pick table off m1 m2 m3 m4 m5 m6 m7 m8 =
  (m1 land Array.unsafe_get table off)
  lor (m2 land Array.unsafe_get table (off + 15))
  lor (m3 land Array.unsafe_get table (off + 30))
  lor (m4 land Array.unsafe_get table (off + 45))
  lor (m5 land Array.unsafe_get table (off + 60))
  lor (m6 land Array.unsafe_get table (off + 75))
  lor (m7 land Array.unsafe_get table (off + 90))
  lor (m8 land Array.unsafe_get table (off + 105))

(* Words [2 l] and [2 l + 1] of [o] from the carried radix-2^51 limb
   [x], split at bit 26. *)
let[@inline] set_limb (o : t) l x =
  Word.set64u o (16 * l) (Int64.of_int (x land 0x3ffffff));
  Word.set64u o ((16 * l) + 8) (Int64.of_int (x lsr 26))

let comb_rows = 64

(* Edwards25519's fixed-base comb (see fe25519.mli), here beside the
   ladder for the same reason: every kernel it runs is inlined into its
   loop, which makes no call.  One pass over the 64 rows, low to high,
   each a signed digit's constant-time row select and one mixed
   addition (ref10's ge_madd) of the selected entry; no doubling.

   The digits are recoded as the loop reaches them: digit i is nibble
   i plus the carry from below, less 16 times the carry it passes on,
   (d + 8) / 16, so -8 <= b <= 7, and the top digit keeps its carry
   (b <= 7 + 1).  Arithmetic only.  The select reads all eight entries
   of the row and picks the match by masks computed once per digit,
   splitting each 51-bit limb into its two words as it picks it;
   negation, -(x, y) = (-x, y), swaps y+x and y-x and takes 2p - 2dxy
   word-wise (what [sub] from zero gives), under the sign mask.  One
   checked read of the table's last int bounds every unchecked read.
   The point's [sub]s subtract only mul outputs, which are carried. *)
let comb (table : int array) k ~x ~y ~z ~t =
  (* Bit 255 is clear for every caller (clamped scalars, scalars reduced
     mod L), so this check branches on no bit a valid scalar can vary. *)
  if Bytes.length k <> 32 || Char.code (Bytes.get k 31) > 127 then
    invalid_arg "Edwards25519.comb: scalar must be < 2^255";
  ignore (Sys.opaque_identity table.((120 * comb_rows) - 1));
  let a = create ()
  and b = create ()
  and c = create ()
  and e = create ()
  and f = create ()
  and g = create ()
  and h = create ()
  and yp = create ()
  and ym = create ()
  and xy2d = create () in
  Bytes.fill x 0 80 '\000';
  Bytes.fill y 0 80 '\000';
  Bytes.fill z 0 80 '\000';
  Bytes.fill t 0 80 '\000';
  Word.set64u y 0 1L;
  Word.set64u z 0 1L;
  let carry = ref 0 in
  for i = 0 to comb_rows - 1 do
    let d =
      ((Char.code (Bytes.unsafe_get k (i lsr 1)) lsr ((i land 1) lsl 2))
      land 15)
      + !carry
    in
    carry := if i < comb_rows - 1 then (d + 8) asr 4 else 0;
    let digit = d - (!carry lsl 4) in
    (* (yp, ym, xy2d) <- digit 16^i P, the identity (1, 1, 0) for 0. *)
    let neg = -(digit lsr 62) (* all ones iff digit < 0 *) in
    let babs = digit - ((neg land digit) lsl 1) in
    let m0 = eq_mask babs 0 and m1 = eq_mask babs 1 and m2 = eq_mask babs 2 in
    let m3 = eq_mask babs 3 and m4 = eq_mask babs 4 and m5 = eq_mask babs 5 in
    let m6 = eq_mask babs 6 and m7 = eq_mask babs 7 and m8 = eq_mask babs 8 in
    for l = 0 to 4 do
      let off = (120 * i) + l in
      let id = m0 land Bool.to_int (l = 0) (* limb l of the identity's 1 *) in
      let p = pick table off m1 m2 m3 m4 m5 m6 m7 m8 lor id in
      let m = pick table (off + 5) m1 m2 m3 m4 m5 m6 m7 m8 lor id in
      let xy = pick table (off + 10) m1 m2 m3 m4 m5 m6 m7 m8 in
      let swap = neg land (p lxor m) in
      set_limb yp l (p lxor swap);
      set_limb ym l (m lxor swap);
      let lo = xy land 0x3ffffff and hi = xy lsr 26 in
      let two_p_lo = if l = 0 then two_p0 else two_p_even in
      let lo = lo lxor (neg land (lo lxor (two_p_lo - lo))) in
      let hi = hi lxor (neg land (hi lxor (two_p_odd - hi))) in
      Word.set64u xy2d (16 * l) (Int64.of_int lo);
      Word.set64u xy2d ((16 * l) + 8) (Int64.of_int hi)
    done;
    add a y x;
    mul_body a a yp (* A = (Y+X)(y+x) *);
    sub b y x;
    mul_body b b ym (* B = (Y-X)(y-x) *);
    mul_body c xy2d t (* C = 2dxy T *);
    sub e a b (* E = A - B *);
    add h a b (* H = A + B *);
    add g z z (* D = 2Z *);
    sub f g c (* F = D - C *);
    add g g c (* G = D + C *);
    mul_body x e f;
    mul_body y g h;
    mul_body z f g;
    mul_body t e h
  done

(* [o <- a^(2^n)], n >= 1. *)
let square_n (o : t) (a : t) n =
  square o a;
  for _ = 2 to n do
    square o o
  done

(* The addition-chain prefix ref10's fe_invert and fe_pow22523 share:
   [o <- z^(2^250 - 1)] and [z11 <- z^11], in 249 squarings and 10
   multiplications.  [z] is read only before [z11] and [o] are written. *)
let pow_2_250_1 (o : t) (z11 : t) (z : t) =
  let t0 = create () and t1 = create () and t2 = create () in
  square t0 z (* z^2 *);
  square_n t1 t0 2 (* z^8 *);
  mul t1 z t1 (* z^9 *);
  mul z11 t0 t1 (* z^11 *);
  square t0 z11 (* z^22 *);
  mul t1 t1 t0 (* z^(2^5 - 1) *);
  square_n t0 t1 5;
  mul t1 t0 t1 (* z^(2^10 - 1) *);
  square_n t0 t1 10;
  mul t0 t0 t1 (* z^(2^20 - 1) *);
  square_n t2 t0 20;
  mul t0 t2 t0 (* z^(2^40 - 1) *);
  square_n t0 t0 10;
  mul t1 t0 t1 (* z^(2^50 - 1) *);
  square_n t0 t1 50;
  mul t0 t0 t1 (* z^(2^100 - 1) *);
  square_n t2 t0 100;
  mul t0 t2 t0 (* z^(2^200 - 1) *);
  square_n t0 t0 50;
  mul o t0 t1 (* z^(2^250 - 1) *)

(* Inversion by Fermat, a^(p-2) = a^(2^255 - 21): 254 squarings and 11
   multiplications (0 maps to 0). *)
let invert (o : t) (a : t) =
  let t = create () and a11 = create () in
  pow_2_250_1 t a11 a;
  square_n t t 5 (* a^(2^255 - 32) *);
  mul o t a11

(* Montgomery's trick: one [invert] of the product of all elements, then
   three multiplications per element (the running product, and two on
   the way back).  A zero would zero the product, so it is detected on
   its canonical words (any representation of 0 or p reduces to 0),
   swapped for 1 under a mask before the product, and its result masked
   back to 0 afterwards: one zero, say a hostile key's, spoils no other
   element.  No branch depends on a value. *)
let batch_invert (a : t array) =
  let n = Array.length a in
  if n = 1 then invert a.(0) a.(0)
  else if n > 1 then begin
    let is_zero = Array.make n 0 and t = create () in
    for i = 0 to n - 1 do
      canonical_into t a.(i);
      let bits = ref 0 in
      for k = 0 to 9 do
        bits := !bits lor Int64.to_int (Word.get64u t (8 * k))
      done;
      (* bits < 2^26: (0 - 1) lsr 62 = 1, and (bits - 1) lsr 62 = 0
         for any other. *)
      let z = (!bits - 1) lsr 62 in
      is_zero.(i) <- z;
      blit ~src:fe_one ~dst:t;
      cswap a.(i) t z
    done;
    (* prefix.(i) = a_0 ... a_i.  Made from [Bytes.empty], not from
       a.(0): see [create_array]. *)
    let prefix = Array.make n Bytes.empty in
    prefix.(0) <- a.(0);
    for i = 1 to n - 1 do
      let p = create () in
      mul p prefix.(i - 1) a.(i);
      prefix.(i) <- p
    done;
    let inv = create () in
    invert inv prefix.(n - 1);
    for i = n - 1 downto 1 do
      (* inv = 1 / (a_0 ... a_i) *)
      mul t inv prefix.(i - 1);
      mul inv inv a.(i);
      blit ~src:t ~dst:a.(i)
    done;
    blit ~src:inv ~dst:a.(0);
    for i = 0 to n - 1 do
      (* 0 for a zero, all ones otherwise *)
      let keep = Int64.of_int (is_zero.(i) - 1) and x = a.(i) in
      for k = 0 to 9 do
        Word.set64u x (8 * k) (Int64.logand (Word.get64u x (8 * k)) keep)
      done
    done
  end

(* a^((p-5)/8) = a^(2^252 - 3), the square-root helper used when
   decompressing Edwards points (RFC 8032 §5.1.3): 251 squarings and 11
   multiplications. *)
let pow2523 (o : t) (a : t) =
  let t = create () in
  pow_2_250_1 t (create ()) a;
  square_n t t 2 (* a^(2^252 - 4) *);
  mul o t a

(* Parity of the canonical representation. *)
let parity (a : t) =
  let c = create () in
  canonical_into c a;
  Int64.to_int (Word.get64u c 0) land 1

let equal (a : t) (b : t) = Bytes_util.ct_equal (pack a) (pack b)
