(* Field arithmetic modulo 2^255 - 19 on 5 limbs of 51 bits in native
   OCaml ints (curve25519-donna's radix-2^51 representation), with lazy
   carries, and X25519's Montgomery ladder over it.  Shared by Curve25519
   and the Edwards-curve arithmetic (Edwards25519: Ed25519 and the comb);
   this is the hottest code in the system — every peeled onion layer
   costs one variable-base scalar multiplication, i.e. ~2,560 [mul]s and
   [square]s (2,295 in [ladder] below, 265 in [invert], which a batch of
   operations shares: see [batch_invert]), and a freshly wrapped layer
   two comb multiplications and no ladder (~750 each: the fresh key on
   the base point's table, the DH on the server key's; see Edwards25519
   and Curve25519.shared_static).

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
   half-limbs in radix 2^25.5 (ref10's fe10 schedule, weights
   w(i) = ceil(25.5 i)): the term f_i*g_j lands on half-limb (i+j) mod 10
   with coefficient 2 when i and j are both odd (w(i)+w(j) = w(i+j)+1)
   and 19 when i+j >= 10 (2^255 = 19 mod p).  Worst-case accumulators
   stay below 2^62: at the input bound (odd half-limbs < 2^27.1), h0 is
   bounded by five (odd,odd) terms of 38·2^27.1·2^27.1 plus four
   (even,even) terms of 19·2^26·2^26 and f0·g0, about 2^61.9, and every
   other half-limb by less.  The interleaved carry chain then rebuilds
   the five 51-bit limbs.

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
     - the products are summed in let chains, three output half-limbs
       at a time (see [mul_body]), so that the compiler does not spill
       every product of a ten-term sum before adding it.

   The ladder lives here, not in Curve25519, because libraries are
   compiled [-opaque] under dune's default profile: a kernel called from
   another module cannot be inlined and goes through [caml_applyN],
   ~5,100 calls per scalar multiplication.  Here every kernel it runs is
   inlined into its loop, which makes no call at all (CI checks the
   object code for closure calls).  [add], [sub], [cswap] and
   [mul_small] are [@inline] (small: [pack] and [batch_invert] take
   their own copy of [cswap]); [mul] and [square] are inlined through
   [mul_body] and [square_body], so the inversion chain keeps calling
   one out-of-line copy.  Against the same loop calling the kernels
   from another module, interleaved in one process: 1.07-1.10x.

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
   cases, at the input bound too (test/prop/prop_fe.ml). *)

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

let pack (n : t) =
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

(* The products are summed three output half-limbs at a time (h0-h2,
   h3-h5, h6-h8, then h9), as chains of [let]s, each group's products in
   order of their left operand: each operand is loaded once per group,
   and only the group's three sums stay live.  Written as one ten-term
   sum per half-limb, each sum is evaluated right to left with every
   product spilled first: twice the stack stores.  Word addition wraps
   the same in any order, so the output limbs are unchanged.  Each line
   adds f_i g_j to h_((i+j) mod 10), as f_i_2 when i and j are both odd
   and as g_j_19 when i + j >= 10 (the header's schedule).

   [mul_body] and [square_body] are inlined into [ladder]; every other
   caller, in this module too, calls the out-of-line [mul] and [square],
   so the ladder holds the only extra copies. *)
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
     accumulators absorb). *)
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
  let f1_2 = 2n * f1 and f3_2 = 2n * f3 and f5_2 = 2n * f5 and f7_2 = 2n * f7 in
  let f9_2 = 2n * f9 in
  let g1_19 = 19n * g1 and g2_19 = 19n * g2 and g3_19 = 19n * g3 in
  let g4_19 = 19n * g4 and g5_19 = 19n * g5 and g6_19 = 19n * g6 in
  let g7_19 = 19n * g7 and g8_19 = 19n * g8 and g9_19 = 19n * g9 in
  let h0 = f0 * g0 in
  let h1 = f0 * g1 in
  let h2 = f0 * g2 in
  let h0 = h0 + (f1_2 * g9_19) in
  let h1 = h1 + (f1 * g0) in
  let h2 = h2 + (f1_2 * g1) in
  let h0 = h0 + (f2 * g8_19) in
  let h1 = h1 + (f2 * g9_19) in
  let h2 = h2 + (f2 * g0) in
  let h0 = h0 + (f3_2 * g7_19) in
  let h1 = h1 + (f3 * g8_19) in
  let h2 = h2 + (f3_2 * g9_19) in
  let h0 = h0 + (f4 * g6_19) in
  let h1 = h1 + (f4 * g7_19) in
  let h2 = h2 + (f4 * g8_19) in
  let h0 = h0 + (f5_2 * g5_19) in
  let h1 = h1 + (f5 * g6_19) in
  let h2 = h2 + (f5_2 * g7_19) in
  let h0 = h0 + (f6 * g4_19) in
  let h1 = h1 + (f6 * g5_19) in
  let h2 = h2 + (f6 * g6_19) in
  let h0 = h0 + (f7_2 * g3_19) in
  let h1 = h1 + (f7 * g4_19) in
  let h2 = h2 + (f7_2 * g5_19) in
  let h0 = h0 + (f8 * g2_19) in
  let h1 = h1 + (f8 * g3_19) in
  let h2 = h2 + (f8 * g4_19) in
  let h0 = h0 + (f9_2 * g1_19) in
  let h1 = h1 + (f9 * g2_19) in
  let h2 = h2 + (f9_2 * g3_19) in
  let h3 = f0 * g3 in
  let h4 = f0 * g4 in
  let h5 = f0 * g5 in
  let h3 = h3 + (f1 * g2) in
  let h4 = h4 + (f1_2 * g3) in
  let h5 = h5 + (f1 * g4) in
  let h3 = h3 + (f2 * g1) in
  let h4 = h4 + (f2 * g2) in
  let h5 = h5 + (f2 * g3) in
  let h3 = h3 + (f3 * g0) in
  let h4 = h4 + (f3_2 * g1) in
  let h5 = h5 + (f3 * g2) in
  let h3 = h3 + (f4 * g9_19) in
  let h4 = h4 + (f4 * g0) in
  let h5 = h5 + (f4 * g1) in
  let h3 = h3 + (f5 * g8_19) in
  let h4 = h4 + (f5_2 * g9_19) in
  let h5 = h5 + (f5 * g0) in
  let h3 = h3 + (f6 * g7_19) in
  let h4 = h4 + (f6 * g8_19) in
  let h5 = h5 + (f6 * g9_19) in
  let h3 = h3 + (f7 * g6_19) in
  let h4 = h4 + (f7_2 * g7_19) in
  let h5 = h5 + (f7 * g8_19) in
  let h3 = h3 + (f8 * g5_19) in
  let h4 = h4 + (f8 * g6_19) in
  let h5 = h5 + (f8 * g7_19) in
  let h3 = h3 + (f9 * g4_19) in
  let h4 = h4 + (f9_2 * g5_19) in
  let h5 = h5 + (f9 * g6_19) in
  let h6 = f0 * g6 in
  let h7 = f0 * g7 in
  let h8 = f0 * g8 in
  let h6 = h6 + (f1_2 * g5) in
  let h7 = h7 + (f1 * g6) in
  let h8 = h8 + (f1_2 * g7) in
  let h6 = h6 + (f2 * g4) in
  let h7 = h7 + (f2 * g5) in
  let h8 = h8 + (f2 * g6) in
  let h6 = h6 + (f3_2 * g3) in
  let h7 = h7 + (f3 * g4) in
  let h8 = h8 + (f3_2 * g5) in
  let h6 = h6 + (f4 * g2) in
  let h7 = h7 + (f4 * g3) in
  let h8 = h8 + (f4 * g4) in
  let h6 = h6 + (f5_2 * g1) in
  let h7 = h7 + (f5 * g2) in
  let h8 = h8 + (f5_2 * g3) in
  let h6 = h6 + (f6 * g0) in
  let h7 = h7 + (f6 * g1) in
  let h8 = h8 + (f6 * g2) in
  let h6 = h6 + (f7_2 * g9_19) in
  let h7 = h7 + (f7 * g0) in
  let h8 = h8 + (f7_2 * g1) in
  let h6 = h6 + (f8 * g8_19) in
  let h7 = h7 + (f8 * g9_19) in
  let h8 = h8 + (f8 * g0) in
  let h6 = h6 + (f9_2 * g7_19) in
  let h7 = h7 + (f9 * g8_19) in
  let h8 = h8 + (f9_2 * g9_19) in
  let h9 = f0 * g9 in
  let h9 = h9 + (f1 * g8) in
  let h9 = h9 + (f2 * g7) in
  let h9 = h9 + (f3 * g6) in
  let h9 = h9 + (f4 * g5) in
  let h9 = h9 + (f5 * g4) in
  let h9 = h9 + (f6 * g3) in
  let h9 = h9 + (f7 * g2) in
  let h9 = h9 + (f8 * g1) in
  let h9 = h9 + (f9 * g0) in
  reduce10 o h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

let mul o a b = mul_body o a b

(* Dedicated squaring: the symmetric terms collapse 100 half-limb
   products to 55 (ref10's fe_sq schedule).  The Montgomery ladder does
   four squarings per scalar bit and [invert] does 254 in a row, so this
   is worth the duplication.  Grouped as in [mul_body]. *)
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
  let f0_2 = 2n * f0 and f1_2 = 2n * f1 and f2_2 = 2n * f2 and f3_2 = 2n * f3 in
  let f4_2 = 2n * f4 and f5_2 = 2n * f5 and f6_2 = 2n * f6 and f7_2 = 2n * f7 in
  let f5_38 = 38n * f5 and f6_19 = 19n * f6 and f7_38 = 38n * f7 in
  let f8_19 = 19n * f8 and f9_38 = 38n * f9 in
  let h0 = f0 * f0 in
  let h1 = f0_2 * f1 in
  let h2 = f0_2 * f2 in
  let h0 = h0 + (f1_2 * f9_38) in
  let h2 = h2 + (f1_2 * f1) in
  let h0 = h0 + (f2_2 * f8_19) in
  let h1 = h1 + (f2 * f9_38) in
  let h0 = h0 + (f3_2 * f7_38) in
  let h1 = h1 + (f3_2 * f8_19) in
  let h2 = h2 + (f3_2 * f9_38) in
  let h0 = h0 + (f4_2 * f6_19) in
  let h1 = h1 + (f4 * f7_38) in
  let h2 = h2 + (f4_2 * f8_19) in
  let h0 = h0 + (f5 * f5_38) in
  let h1 = h1 + (f5_2 * f6_19) in
  let h2 = h2 + (f5_2 * f7_38) in
  let h2 = h2 + (f6 * f6_19) in
  let h3 = f0_2 * f3 in
  let h4 = f0_2 * f4 in
  let h5 = f0_2 * f5 in
  let h3 = h3 + (f1_2 * f2) in
  let h4 = h4 + (f1_2 * f3_2) in
  let h5 = h5 + (f1_2 * f4) in
  let h4 = h4 + (f2 * f2) in
  let h5 = h5 + (f2_2 * f3) in
  let h3 = h3 + (f4 * f9_38) in
  let h3 = h3 + (f5_2 * f8_19) in
  let h4 = h4 + (f5_2 * f9_38) in
  let h3 = h3 + (f6 * f7_38) in
  let h4 = h4 + (f6_2 * f8_19) in
  let h5 = h5 + (f6 * f9_38) in
  let h4 = h4 + (f7 * f7_38) in
  let h5 = h5 + (f7_2 * f8_19) in
  let h6 = f0_2 * f6 in
  let h7 = f0_2 * f7 in
  let h8 = f0_2 * f8 in
  let h6 = h6 + (f1_2 * f5_2) in
  let h7 = h7 + (f1_2 * f6) in
  let h8 = h8 + (f1_2 * f7_2) in
  let h6 = h6 + (f2_2 * f4) in
  let h7 = h7 + (f2_2 * f5) in
  let h8 = h8 + (f2_2 * f6) in
  let h6 = h6 + (f3_2 * f3) in
  let h7 = h7 + (f3_2 * f4) in
  let h8 = h8 + (f3_2 * f5_2) in
  let h8 = h8 + (f4 * f4) in
  let h6 = h6 + (f7_2 * f9_38) in
  let h6 = h6 + (f8 * f8_19) in
  let h7 = h7 + (f8 * f9_38) in
  let h8 = h8 + (f9 * f9_38) in
  let h9 = f0_2 * f9 in
  let h9 = h9 + (f1_2 * f8) in
  let h9 = h9 + (f2_2 * f7) in
  let h9 = h9 + (f3_2 * f6) in
  let h9 = h9 + (f4_2 * f5) in
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
   its canonical encoding (any limb representation of 0 or p), swapped
   for 1 under a mask before the product, and its result masked back to
   0 afterwards: one zero, say a hostile key's, spoils no other element.
   No branch depends on a value. *)
let batch_invert (a : t array) =
  let n = Array.length a in
  if n = 1 then invert a.(0) a.(0)
  else if n > 1 then begin
    let is_zero = Array.make n 0 and t = create () in
    for i = 0 to n - 1 do
      let enc = pack a.(i) and bits = ref 0 in
      for j = 0 to 31 do
        bits := !bits lor Bytes_util.get_u8 enc j
      done;
      (* (0 - 1) lsr 62 = 1; (1..255 - 1) lsr 62 = 0. *)
      let z = (!bits - 1) lsr 62 in
      is_zero.(i) <- z;
      blit ~src:fe_one ~dst:t;
      cswap a.(i) t z
    done;
    (* prefix.(i) = a_0 ... a_i *)
    let prefix = Array.make n a.(0) in
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
