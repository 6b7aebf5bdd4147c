(* ref10's radix-2^25.5 schoolbook multiplication and squaring (fe_mul,
   fe_sq) on Fe25519's ten words: 100 and 55 word products summed
   straight into the ten accumulators, then the carry chain Fe25519
   runs.  Fe25519's Karatsuba kernels compute the same ten accumulators
   by another route, so their output words must equal these word for
   word, not just as field values; test/prop's prop_fe checks that.
   Test code only. *)

(* Carry the ten accumulators, h0 to h9, the carry out of h9 times 19
   back into h0, and once more from h0 into h1: the ten output words. *)
let[@inline] reduce10 h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 =
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
  Array.map to_int [| h0; h1; h2; h3; h4; h5; h6; h7; h8; h9 |]

(* Each line adds f_i g_j to h_((i+j) mod 10), as f_i_2 when i and j
   are both odd and as g_j_19 when i + j >= 10, three output words
   at a time. *)
let mul (a : int array) (b : int array) =
  let open Word in
  let f0 = of_int a.(0) and f1 = of_int a.(1) and f2 = of_int a.(2) in
  let f3 = of_int a.(3) and f4 = of_int a.(4) and f5 = of_int a.(5) in
  let f6 = of_int a.(6) and f7 = of_int a.(7) and f8 = of_int a.(8) in
  let f9 = of_int a.(9) in
  let g0 = of_int b.(0) and g1 = of_int b.(1) and g2 = of_int b.(2) in
  let g3 = of_int b.(3) and g4 = of_int b.(4) and g5 = of_int b.(5) in
  let g6 = of_int b.(6) and g7 = of_int b.(7) and g8 = of_int b.(8) in
  let g9 = of_int b.(9) in
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
  reduce10 h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

(* The symmetric terms collapse 100 word products to 55 (ref10's
   fe_sq schedule). *)
let square (a : int array) =
  let open Word in
  let f0 = of_int a.(0) and f1 = of_int a.(1) and f2 = of_int a.(2) in
  let f3 = of_int a.(3) and f4 = of_int a.(4) and f5 = of_int a.(5) in
  let f6 = of_int a.(6) and f7 = of_int a.(7) and f8 = of_int a.(8) in
  let f9 = of_int a.(9) in
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
  reduce10 h0 h1 h2 h3 h4 h5 h6 h7 h8 h9
