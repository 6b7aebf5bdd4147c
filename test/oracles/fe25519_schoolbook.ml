(* The radix-2^25.5 schoolbook multiplication and squaring that
   Fe25519's Karatsuba kernels replaced, verbatim but for their names:
   100 and 55 half-limb products summed straight into the ten
   accumulators (ref10's fe10 schedule).  The Karatsuba kernels compute
   the same ten accumulators by another route, so their output limbs
   must equal these limb for limb, not just as field values; test/prop's
   prop_fe checks that.  Test code only. *)

let mask26 = 0x3ffffffn

(* Carry the ten radix-2^25.5 accumulators and recombine them into five
   51-bit limbs of [o], limb 4 first. *)
let[@inline] reduce10 (o : Fe25519.t) h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 =
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

(* Each line adds f_i g_j to h_((i+j) mod 10), as f_i_2 when i and j
   are both odd and as g_j_19 when i + j >= 10, three output half-limbs
   at a time. *)
let mul (o : Fe25519.t) (a : Fe25519.t) (b : Fe25519.t) =
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

(* The symmetric terms collapse 100 half-limb products to 55 (ref10's
   fe_sq schedule). *)
let square (o : Fe25519.t) (a : Fe25519.t) =
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
