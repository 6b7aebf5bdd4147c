(* Field arithmetic modulo 2^255 - 19 on 5 limbs of 51 bits in native
   OCaml ints (curve25519-donna's radix-2^51 representation), with lazy
   carries, and the two X25519 loops over it: the Montgomery ladder and
   the fixed-base comb.  Shared by Curve25519 and the Edwards-curve
   arithmetic (Edwards25519: Ed25519 and the comb's tables); this is
   the hottest code in the system — every peeled onion layer
   costs one variable-base scalar multiplication, i.e. ~2,560 [mul]s and
   [square]s (2,295 in [ladder] below, 265 in [invert], which a batch of
   operations shares: see [batch_invert]), and a freshly wrapped layer
   two comb multiplications and no ladder (448 [mul]s each in [comb]
   below, plus the inversion: the fresh key on the base point's table,
   the DH on the server key's; see Edwards25519 and
   Curve25519.shared_static).

   Representation and carry discipline
   -----------------------------------
   A field element is l0 + 2^51 l1 + 2^102 l2 + 2^153 l3 + 2^204 l4 with
   each limb a nonnegative native int.  The contract (bounds, and which
   lazy values may enter a multiplication) is stated once, in
   fe25519.mli: carried limbs are < 2^51 + 2^36, and [mul]/[square]/
   [mul_small] are sized for input limbs < 2^53.1.

   [sub] keeps limbs nonnegative by adding 2p limb-wise (limb 0 of 2p is
   2^52 - 38, the rest are 2^52 - 2) before subtracting; its SECOND
   argument must therefore be carried.  Every call site in Curve25519 and
   Edwards25519 satisfies this (subtrahends are always fresh mul/square
   outputs, explicitly [carry]ed sums, or constants), and test/prop/
   checks the resulting values differentially against the seed
   implementation (test/oracles/fe25519_ref).

   Multiplication on half-limbs
   ----------------------------
   The product of two 51-bit limbs needs 102 bits, which no machine word
   has, so [mul]/[square] split each limb at bit 26 and work on ten
   half-limbs in radix 2^25.5 (ref10's fe10 weights,
   w(i) = ceil(25.5 i)).  The half-limb product f_i g_j belongs to
   half-limb (i+j) mod 10, with coefficient 2 when i and j are both odd
   (w(i)+w(j) = w(i+j)+1) and 19 when i+j >= 10 (2^255 = 19 mod p);
   summing those 100 terms straight into ten accumulators h0..h9 is the
   schoolbook schedule (kept as test/oracles/fe25519_schoolbook).

   [mul] sums the same ten accumulators by Karatsuba on the even/odd
   split.  The even half-limbs sit at weights 51k and the odd ones at
   51k + 26, so with X = 2^51, f = F_e(X) + 2^26 F_o(X) for
   F_e = sum f_2k X^k and F_o = sum f_2k+1 X^k.  Three 5x5 products
   mod X^5 - 19, P1 = F_e G_e, P2 = F_o G_o and
   P3 = (F_e + F_o)(G_e + G_o), give

     h_2k   = P1[k] + 2 P2[k-1]    (h0 = P1[0] + 38 P2[4])
     h_2k+1 = P3[k] - P1[k] - P2[k]

   since 2^26 2^26 = 2 X and X^5 = 19.  Term by term this is the
   schoolbook's sum: an (even, even) term lands in P1 at (i+j)/2, times
   19 past X^5; an (odd, odd) one in P2, shifted up one X and doubled,
   so times 2, or 38 when it wraps; and P3 - P1 - P2 is exactly the
   (even, odd) and (odd, even) cross terms.  So every h is the same
   integer as the schoolbook's, and the output limbs are the same, not
   just their field value: 75 half-limb products instead of 100.  A
   square takes 45 instead of 55, each 5x5 square needing 15.

   Accumulators stay below 2^62: at the input bound (odd half-limbs
   < 2^27.1), h0 is bounded by five (odd,odd) terms of 38·2^27.1·2^27.1
   plus four (even,even) terms of 19·2^26·2^26 and f0·g0, about 2^61.9,
   and every other half-limb by less.  The one new intermediate, P3,
   multiplies sums of an even and an odd half-limb (< 2^27.66), and its
   largest coefficient, P3[0], has one plain and four 19-fold terms:
   < 77·2^55.32, about 2^61.6.  The interleaved carry chain then
   rebuilds the five 51-bit limbs.

   Untagged kernels
   ----------------
   A native int carries a tag bit, and the compiler (ocamlopt 5.1,
   without flambda) fixes it up around every multiply and shift: the
   tagged [mul] was 874 instructions around its 109 imuls, 534 of them
   stack accesses.  Since every accumulator is below 2^62, a 64-bit word
   computes the same integers as a 63-bit int, so [mul], [square],
   [mul_small] and [reduce10] run on [nativeint] locals instead: each
   operand limb is untagged once on load, the half-limb products and
   the carry chain run on raw words, and each output limb (< 2^52) is
   retagged once on store.  The output limbs are exactly the tagged
   code's, not just their packing.  Without flambda, ocamlopt keeps a
   let-bound [nativeint] unboxed as long as it is only passed to
   primitives, so:

     - the operators are the compiler's primitives ({!Word}), never
       closures, and the loads are written inline;
     - [reduce10] is [@inline]: an out-of-line call would box its ten
       word arguments (~30 words per call);
     - the products are summed in let chains, one coefficient of P1,
       P2 and P3 at a time (see [mul_body]), so that the compiler does
       not spill every product of a sum before adding it.

   The ladder lives here, not in Curve25519, because libraries are
   compiled [-opaque] under dune's default profile: a kernel called from
   another module cannot be inlined and goes through [caml_applyN],
   ~5,100 calls per scalar multiplication.  Here every kernel it runs is
   inlined into its loop, which makes no call at all (CI checks the
   object code for closure calls).  The fixed-base comb's loop lives
   here for the same reason ([comb]: it made ~870 such calls from
   Edwards25519).  [add], [sub], [cswap] and [mul_small] are [@inline]
   (small: [pack] and [batch_invert] take their own copy of [cswap]);
   [mul] and [square] are inlined through [mul_body] and [square_body],
   so the inversion chain keeps calling one out-of-line copy.  Against
   the same loop calling the kernels from another module, interleaved
   in one process: the ladder 1.07-1.10x.

   The kernels allocate nothing (a tier-1 test counts minor words).
   Bounds: each operand's limb 4 is read with a checked access first,
   which proves the array has at least 5 elements, and limbs 0-3 are
   then read unchecked; the output's limb 4 is written checked first,
   after every load, so a short array raises before anything is
   written.  [add], [sub] and [cswap] follow the same rule.  The one
   added branch depends on an array's length, never its contents.
   Against the tagged kernels, interleaved in one process on a 2-vCPU
   Intel Xeon VM (three runs): [mul] 1.42x, [square] 1.06-1.26x, the
   ladder 1.42-1.44x.
   Differentially tested against Fe25519_ref over thousands of seeded
   cases, at the input bound too, and limb for limb against the
   schoolbook kernels (test/prop/prop_fe.ml). *)

type t = int array (* 5 limbs, radix 2^51 *)

let mask51 = (1 lsl 51) - 1

let create () = Array.make 5 0

let of_limbs l =
  if Array.length l <> 5 then invalid_arg "Fe25519.of_limbs";
  Array.copy l

let copy = Array.copy
let blit ~src ~dst = Array.blit src 0 dst 0 5

let zero () = create ()

let one () =
  let a = create () in
  a.(0) <- 1;
  a

let fe_one = one ()

(* One full reducing pass (arithmetic shifts, so mid-computation negative
   limbs propagate correctly): afterwards limbs 0 and 2-4 are < 2^51 and
   limb 1 is < 2^51 + 1.  Iterated by [pack] until fully reduced. *)
let carry (o : t) =
  let c = o.(0) asr 51 in
  o.(0) <- o.(0) - (c lsl 51);
  o.(1) <- o.(1) + c;
  let c = o.(1) asr 51 in
  o.(1) <- o.(1) - (c lsl 51);
  o.(2) <- o.(2) + c;
  let c = o.(2) asr 51 in
  o.(2) <- o.(2) - (c lsl 51);
  o.(3) <- o.(3) + c;
  let c = o.(3) asr 51 in
  o.(3) <- o.(3) - (c lsl 51);
  o.(4) <- o.(4) + c;
  let c = o.(4) asr 51 in
  o.(4) <- o.(4) - (c lsl 51);
  o.(0) <- o.(0) + (19 * c);
  let c = o.(0) asr 51 in
  o.(0) <- o.(0) - (c lsl 51);
  o.(1) <- o.(1) + c

(* Constant-time conditional swap when b = 1. *)
let[@inline] cswap (p : t) (q : t) b =
  let c = lnot (b - 1) in
  let p4 = p.(4) and q4 = q.(4) in
  let t = c land (p4 lxor q4) in
  Array.unsafe_set p 4 (p4 lxor t);
  Array.unsafe_set q 4 (q4 lxor t);
  for i = 0 to 3 do
    let pi = Array.unsafe_get p i and qi = Array.unsafe_get q i in
    let t = c land (pi lxor qi) in
    Array.unsafe_set p i (pi lxor t);
    Array.unsafe_set q i (qi lxor t)
  done

(* A fully reduced copy of [n]: limbs < 2^51, value < p. *)
let canonical (n : t) =
  let t = Array.copy n in
  carry t;
  carry t;
  carry t;
  (* Limbs are now in [0, 2^51), so the value is < 2^255 < 2p: one
     conditional subtraction of p = 2^255 - 19 canonicalises (done twice,
     TweetNaCl-style, out of an abundance of caution — the second pass is
     a no-op once the value is < p). *)
  let m = Array.make 5 0 in
  for _ = 0 to 1 do
    m.(0) <- t.(0) - 0x7ffffffffffed;
    for i = 1 to 4 do
      m.(i) <- t.(i) - mask51 - ((m.(i - 1) asr 51) land 1);
      m.(i - 1) <- m.(i - 1) land mask51
    done;
    let b = (m.(4) asr 51) land 1 in
    m.(4) <- m.(4) land mask51;
    (* Keep m (the subtracted value) unless the subtraction borrowed. *)
    cswap t m (1 - b)
  done;
  t

let pack (n : t) =
  let t = canonical n in
  let o = Bytes.create 32 in
  for i = 0 to 31 do
    let bit = 8 * i in
    let j = bit / 51 in
    let sh = bit - (51 * j) in
    let v = t.(j) lsr sh in
    let v = if sh > 43 && j < 4 then v lor (t.(j + 1) lsl (51 - sh)) else v in
    Bytes_util.set_u8 o i (v land 0xff)
  done;
  o

let unpack (n : bytes) : t =
  let o = create () in
  for i = 0 to 31 do
    let v = Bytes_util.get_u8 n i in
    let v = if i = 31 then v land 0x7f else v in
    let bit = 8 * i in
    let j = bit / 51 in
    let sh = bit - (51 * j) in
    o.(j) <- o.(j) lor ((v lsl sh) land mask51);
    if sh > 43 && j < 4 then o.(j + 1) <- o.(j + 1) lor (v lsr (51 - sh))
  done;
  o

let[@inline] add (o : t) (a : t) (b : t) =
  o.(4) <- a.(4) + b.(4);
  Array.unsafe_set o 0 (Array.unsafe_get a 0 + Array.unsafe_get b 0);
  Array.unsafe_set o 1 (Array.unsafe_get a 1 + Array.unsafe_get b 1);
  Array.unsafe_set o 2 (Array.unsafe_get a 2 + Array.unsafe_get b 2);
  Array.unsafe_set o 3 (Array.unsafe_get a 3 + Array.unsafe_get b 3)

(* 2p limb-wise; adding it before subtracting keeps limbs nonnegative for
   any carried subtrahend (see the carry discipline above). *)
let two_p0 = (1 lsl 52) - 38
let two_pi = (1 lsl 52) - 2

let[@inline] sub (o : t) (a : t) (b : t) =
  o.(4) <- a.(4) + two_pi - b.(4);
  Array.unsafe_set o 0 (Array.unsafe_get a 0 + two_p0 - Array.unsafe_get b 0);
  Array.unsafe_set o 1 (Array.unsafe_get a 1 + two_pi - Array.unsafe_get b 1);
  Array.unsafe_set o 2 (Array.unsafe_get a 2 + two_pi - Array.unsafe_get b 2);
  Array.unsafe_set o 3 (Array.unsafe_get a 3 + two_pi - Array.unsafe_get b 3)

(* The kernels below run on {!Word}'s machine-word primitives. *)
let mask26 = 0x3ffffffn

(* Carry the ten radix-2^25.5 accumulators and recombine them into five
   51-bit limbs of [o], limb 4 (the one bounds-checked store) first.
   Shared by [mul], [square], and [mul_small]; inlined, because an
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
  o.(4) <- to_int (h8 lor (h9 lsl 26));
  Array.unsafe_set o 0 (to_int (h0 lor (h1 lsl 26)));
  Array.unsafe_set o 1 (to_int (h2 lor (h3 lsl 26)));
  Array.unsafe_set o 2 (to_int (h4 lor (h5 lsl 26)));
  Array.unsafe_set o 3 (to_int (h6 lor (h7 lsl 26)))

(* Karatsuba on the even/odd split (see the header): the three 5x5
   products mod X^5 - 19, P1 = F_e G_e, P2 = F_o G_o and
   P3 = (F_e + F_o)(G_e + G_o), one coefficient k at a time, k = 4
   first: P1[4] waits for h8 and P2[4] for h0, and otherwise only
   P2[k-1] stays live from one k to the next.  Each coefficient is a
   chain of [let]s, the three products' chains interleaved in order of
   their left operand, so that the compiler does not spill every
   product of a sum before adding it; word addition wraps the same in
   any order, so the output limbs are unchanged.  A wrapped term
   (i + j >= 5) takes its right operand times 19.

   [mul_body] and [square_body] are inlined into [ladder] and [comb];
   every other caller, in this module too, calls the out-of-line [mul]
   and [square], so those two loops hold the only extra copies. *)
let[@inline] mul_body (o : t) (a : t) (b : t) =
  let open Word in
  let a4 = of_int a.(4) and b4 = of_int b.(4) in
  let a0 = of_int (Array.unsafe_get a 0)
  and a1 = of_int (Array.unsafe_get a 1)
  and a2 = of_int (Array.unsafe_get a 2)
  and a3 = of_int (Array.unsafe_get a 3)
  and b0 = of_int (Array.unsafe_get b 0)
  and b1 = of_int (Array.unsafe_get b 1)
  and b2 = of_int (Array.unsafe_get b 2)
  and b3 = of_int (Array.unsafe_get b 3) in
  (* Split into half-limbs (arithmetic shift: a negative limb yields a
     negative high half and a nonnegative low half, which the signed
     accumulators absorb).  f_2k and g_2k are F_e's and G_e's
     coefficients, f_2k+1 and g_2k+1 F_o's and G_o's, and s_k and t_k
     those of F_e + F_o and G_e + G_o. *)
  let f0 = a0 land mask26 and f1 = a0 asr 26 in
  let f2 = a1 land mask26 and f3 = a1 asr 26 in
  let f4 = a2 land mask26 and f5 = a2 asr 26 in
  let f6 = a3 land mask26 and f7 = a3 asr 26 in
  let f8 = a4 land mask26 and f9 = a4 asr 26 in
  let g0 = b0 land mask26 and g1 = b0 asr 26 in
  let g2 = b1 land mask26 and g3 = b1 asr 26 in
  let g4 = b2 land mask26 and g5 = b2 asr 26 in
  let g6 = b3 land mask26 and g7 = b3 asr 26 in
  let g8 = b4 land mask26 and g9 = b4 asr 26 in
  let s0 = f0 + f1 and s1 = f2 + f3 and s2 = f4 + f5 in
  let s3 = f6 + f7 and s4 = f8 + f9 in
  let t0 = g0 + g1 and t1 = g2 + g3 and t2 = g4 + g5 in
  let t3 = g6 + g7 and t4 = g8 + g9 in
  let g2_19 = 19n * g2 and g3_19 = 19n * g3 and g4_19 = 19n * g4 in
  let g5_19 = 19n * g5 and g6_19 = 19n * g6 and g7_19 = 19n * g7 in
  let g8_19 = 19n * g8 and g9_19 = 19n * g9 in
  let t1_19 = g2_19 + g3_19 and t2_19 = g4_19 + g5_19 in
  let t3_19 = g6_19 + g7_19 and t4_19 = g8_19 + g9_19 in
  (* k = 4 *)
  let p1 = f0 * g8 in
  let p2 = f1 * g9 in
  let p3 = s0 * t4 in
  let p1 = p1 + (f2 * g6) in
  let p2 = p2 + (f3 * g7) in
  let p3 = p3 + (s1 * t3) in
  let p1 = p1 + (f4 * g4) in
  let p2 = p2 + (f5 * g5) in
  let p3 = p3 + (s2 * t2) in
  let p1 = p1 + (f6 * g2) in
  let p2 = p2 + (f7 * g3) in
  let p3 = p3 + (s3 * t1) in
  let p1 = p1 + (f8 * g0) in
  let p2 = p2 + (f9 * g1) in
  let p3 = p3 + (s4 * t0) in
  let h9 = p3 - p1 - p2 and p1_4 = p1 and p2_4 = p2 in
  (* k = 0 *)
  let p1 = f0 * g0 in
  let p2 = f1 * g1 in
  let p3 = s0 * t0 in
  let p1 = p1 + (f2 * g8_19) in
  let p2 = p2 + (f3 * g9_19) in
  let p3 = p3 + (s1 * t4_19) in
  let p1 = p1 + (f4 * g6_19) in
  let p2 = p2 + (f5 * g7_19) in
  let p3 = p3 + (s2 * t3_19) in
  let p1 = p1 + (f6 * g4_19) in
  let p2 = p2 + (f7 * g5_19) in
  let p3 = p3 + (s3 * t2_19) in
  let p1 = p1 + (f8 * g2_19) in
  let p2 = p2 + (f9 * g3_19) in
  let p3 = p3 + (s4 * t1_19) in
  let h0 = p1 + (38n * p2_4) and h1 = p3 - p1 - p2 and p2_prev = p2 in
  (* k = 1 *)
  let p1 = f0 * g2 in
  let p2 = f1 * g3 in
  let p3 = s0 * t1 in
  let p1 = p1 + (f2 * g0) in
  let p2 = p2 + (f3 * g1) in
  let p3 = p3 + (s1 * t0) in
  let p1 = p1 + (f4 * g8_19) in
  let p2 = p2 + (f5 * g9_19) in
  let p3 = p3 + (s2 * t4_19) in
  let p1 = p1 + (f6 * g6_19) in
  let p2 = p2 + (f7 * g7_19) in
  let p3 = p3 + (s3 * t3_19) in
  let p1 = p1 + (f8 * g4_19) in
  let p2 = p2 + (f9 * g5_19) in
  let p3 = p3 + (s4 * t2_19) in
  let h2 = p1 + (2n * p2_prev) and h3 = p3 - p1 - p2 and p2_prev = p2 in
  (* k = 2 *)
  let p1 = f0 * g4 in
  let p2 = f1 * g5 in
  let p3 = s0 * t2 in
  let p1 = p1 + (f2 * g2) in
  let p2 = p2 + (f3 * g3) in
  let p3 = p3 + (s1 * t1) in
  let p1 = p1 + (f4 * g0) in
  let p2 = p2 + (f5 * g1) in
  let p3 = p3 + (s2 * t0) in
  let p1 = p1 + (f6 * g8_19) in
  let p2 = p2 + (f7 * g9_19) in
  let p3 = p3 + (s3 * t4_19) in
  let p1 = p1 + (f8 * g6_19) in
  let p2 = p2 + (f9 * g7_19) in
  let p3 = p3 + (s4 * t3_19) in
  let h4 = p1 + (2n * p2_prev) and h5 = p3 - p1 - p2 and p2_prev = p2 in
  (* k = 3 *)
  let p1 = f0 * g6 in
  let p2 = f1 * g7 in
  let p3 = s0 * t3 in
  let p1 = p1 + (f2 * g4) in
  let p2 = p2 + (f3 * g5) in
  let p3 = p3 + (s1 * t2) in
  let p1 = p1 + (f4 * g2) in
  let p2 = p2 + (f5 * g3) in
  let p3 = p3 + (s2 * t1) in
  let p1 = p1 + (f6 * g0) in
  let p2 = p2 + (f7 * g1) in
  let p3 = p3 + (s3 * t0) in
  let p1 = p1 + (f8 * g8_19) in
  let p2 = p2 + (f9 * g9_19) in
  let p3 = p3 + (s4 * t4_19) in
  let h6 = p1 + (2n * p2_prev) and h7 = p3 - p1 - p2 in
  let h8 = p1_4 + (2n * p2) in
  reduce10 o h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

let mul o a b = mul_body o a b

(* Dedicated squaring: the same split, with each 5x5 square taking 15
   half-limb products, the middle F_e F_o + F_o F_e as
   (F_e + F_o)^2 - F_e^2 - F_o^2, and 45 products in all.  The
   Montgomery ladder does four squarings per scalar bit and [invert]
   does 254 in a row, so this is worth the duplication.  The three
   squares S_e, S_o and S_s are grouped by coefficient as in
   [mul_body]; for inputs a_0..a_4 = (f0, f2, .., f8), (f1, f3, .., f9)
   and (s0, .., s4), each coefficient is its square terms plus twice
   its cross terms, doubled once per sum rather than per operand, which
   keeps fewer multiples live:

     S[0] = a0 a0 + 2 (a1 19a4 + a2 19a3)   S[3] = a4 19a4 + 2 (a0 a3 + a1 a2)
     S[1] = a3 19a3 + 2 (a0 a1 + a2 19a4)   S[4] = a2 a2 + 2 (a0 a4 + a1 a3)
     S[2] = a1 a1 + 2 (a0 a2 + a3 19a4) *)
let[@inline] square_body (o : t) (a : t) =
  let open Word in
  let a4 = of_int a.(4) in
  let a0 = of_int (Array.unsafe_get a 0)
  and a1 = of_int (Array.unsafe_get a 1)
  and a2 = of_int (Array.unsafe_get a 2)
  and a3 = of_int (Array.unsafe_get a 3) in
  let f0 = a0 land mask26 and f1 = a0 asr 26 in
  let f2 = a1 land mask26 and f3 = a1 asr 26 in
  let f4 = a2 land mask26 and f5 = a2 asr 26 in
  let f6 = a3 land mask26 and f7 = a3 asr 26 in
  let f8 = a4 land mask26 and f9 = a4 asr 26 in
  let s0 = f0 + f1 and s1 = f2 + f3 and s2 = f4 + f5 in
  let s3 = f6 + f7 and s4 = f8 + f9 in
  let f6_19 = 19n * f6 and f7_19 = 19n * f7 in
  let f8_19 = 19n * f8 and f9_19 = 19n * f9 in
  let s3_19 = f6_19 + f7_19 and s4_19 = f8_19 + f9_19 in
  (* k = 4 *)
  let p1 = f0 * f8 in
  let p2 = f1 * f9 in
  let p3 = s0 * s4 in
  let p1 = p1 + (f2 * f6) in
  let p2 = p2 + (f3 * f7) in
  let p3 = p3 + (s1 * s3) in
  let p1 = (2n * p1) + (f4 * f4) in
  let p2 = (2n * p2) + (f5 * f5) in
  let p3 = (2n * p3) + (s2 * s2) in
  let h9 = p3 - p1 - p2 and p1_4 = p1 and p2_4 = p2 in
  (* k = 0 *)
  let p1 = f2 * f8_19 in
  let p2 = f3 * f9_19 in
  let p3 = s1 * s4_19 in
  let p1 = p1 + (f4 * f6_19) in
  let p2 = p2 + (f5 * f7_19) in
  let p3 = p3 + (s2 * s3_19) in
  let p1 = (2n * p1) + (f0 * f0) in
  let p2 = (2n * p2) + (f1 * f1) in
  let p3 = (2n * p3) + (s0 * s0) in
  let h0 = p1 + (38n * p2_4) and h1 = p3 - p1 - p2 and p2_prev = p2 in
  (* k = 1 *)
  let p1 = f0 * f2 in
  let p2 = f1 * f3 in
  let p3 = s0 * s1 in
  let p1 = p1 + (f4 * f8_19) in
  let p2 = p2 + (f5 * f9_19) in
  let p3 = p3 + (s2 * s4_19) in
  let p1 = (2n * p1) + (f6 * f6_19) in
  let p2 = (2n * p2) + (f7 * f7_19) in
  let p3 = (2n * p3) + (s3 * s3_19) in
  let h2 = p1 + (2n * p2_prev) and h3 = p3 - p1 - p2 and p2_prev = p2 in
  (* k = 2 *)
  let p1 = f0 * f4 in
  let p2 = f1 * f5 in
  let p3 = s0 * s2 in
  let p1 = p1 + (f6 * f8_19) in
  let p2 = p2 + (f7 * f9_19) in
  let p3 = p3 + (s3 * s4_19) in
  let p1 = (2n * p1) + (f2 * f2) in
  let p2 = (2n * p2) + (f3 * f3) in
  let p3 = (2n * p3) + (s1 * s1) in
  let h4 = p1 + (2n * p2_prev) and h5 = p3 - p1 - p2 and p2_prev = p2 in
  (* k = 3 *)
  let p1 = f0 * f6 in
  let p2 = f1 * f7 in
  let p3 = s0 * s3 in
  let p1 = p1 + (f2 * f4) in
  let p2 = p2 + (f3 * f5) in
  let p3 = p3 + (s1 * s2) in
  let p1 = (2n * p1) + (f8 * f8_19) in
  let p2 = (2n * p2) + (f9 * f9_19) in
  let p3 = (2n * p3) + (s4 * s4_19) in
  let h6 = p1 + (2n * p2_prev) and h7 = p3 - p1 - p2 in
  let h8 = p1_4 + (2n * p2) in
  reduce10 o h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

let square o a = square_body o a

(* Multiply by a small nonnegative constant (c < 2^17 covers the
   ladder's curve constant 121665 = (A-2)/4).  A direct limb product
   could reach 2^54 * 2^17 = 2^71, so this also goes through
   half-limbs. *)
let[@inline] mul_small (o : t) (a : t) c =
  let open Word in
  let c = of_int c in
  let a4 = of_int a.(4) in
  let a0 = of_int (Array.unsafe_get a 0)
  and a1 = of_int (Array.unsafe_get a 1)
  and a2 = of_int (Array.unsafe_get a 2)
  and a3 = of_int (Array.unsafe_get a 3) in
  reduce10 o
    ((a0 land mask26) * c)
    ((a0 asr 26) * c)
    ((a1 land mask26) * c)
    ((a1 asr 26) * c)
    ((a2 land mask26) * c)
    ((a2 asr 26) * c)
    ((a3 land mask26) * c)
    ((a3 asr 26) * c)
    ((a4 land mask26) * c)
    ((a4 asr 26) * c)

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
  Array.fill c 0 5 0;
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
   of the row and picks the match by masks computed once per digit;
   negation, -(x, y) = (-x, y), swaps y+x and y-x and takes 2p - 2dxy
   limb-wise (what [sub] from zero gives), under the sign mask.  One
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
  Array.fill x 0 5 0;
  Array.fill y 0 5 0;
  Array.fill z 0 5 0;
  Array.fill t 0 5 0;
  y.(0) <- 1;
  z.(0) <- 1;
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
      let two_p = if l = 0 then two_p0 else two_pi in
      Array.unsafe_set yp l (p lxor swap);
      Array.unsafe_set ym l (m lxor swap);
      Array.unsafe_set xy2d l (xy lxor (neg land (xy lxor (two_p - xy))))
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
   its canonical limbs (any limb representation of 0 or p reduces to
   0), swapped for 1 under a mask before the product, and its result
   masked back to 0 afterwards: one zero, say a hostile key's, spoils
   no other element.  No branch depends on a value. *)
let batch_invert (a : t array) =
  let n = Array.length a in
  if n = 1 then invert a.(0) a.(0)
  else if n > 1 then begin
    let is_zero = Array.make n 0 and t = create () in
    for i = 0 to n - 1 do
      let c = canonical a.(i) in
      let bits = c.(0) lor c.(1) lor c.(2) lor c.(3) lor c.(4) in
      (* bits < 2^51: (0 - 1) lsr 62 = 1, and (bits - 1) lsr 62 = 0
         for any other. *)
      let z = (bits - 1) lsr 62 in
      is_zero.(i) <- z;
      blit ~src:fe_one ~dst:t;
      cswap a.(i) t z
    done;
    (* prefix.(i) = a_0 ... a_i.  Made from [||], not from a.(0): an
       array of more than 256 elements made from a young value forces a
       minor collection (caml_make_vect). *)
    let prefix = Array.make n [||] in
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
      let keep = is_zero.(i) - 1 (* 0 for a zero, all ones otherwise *) in
      let x = a.(i) in
      for k = 0 to 4 do
        x.(k) <- x.(k) land keep
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
let parity (a : t) = Bytes_util.get_u8 (pack a) 0 land 1

let equal (a : t) (b : t) = Bytes_util.ct_equal (pack a) (pack b)
