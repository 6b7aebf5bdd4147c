(* The host's speed, for reporting times at a fixed reference speed.

   On a shared host the speed of multiply-heavy code swings by up to 2x
   within a second, as neighbours come and go; the round's time swings
   with it, and runs of one commit spread by 15-40%.  A simple integer
   loop does not see these swings (it is latency-bound, and the
   neighbours compete for execution units), but a field multiplication,
   the X25519 inner loop that dominates every round, does.  So the
   benchmark times this kernel right before and after everything it
   measures, and scales each time by [nominal_ms /. kernel time].

   The kernel is a copy of the production radix-2^25.5 field
   multiplication (lib/crypto/fe25519.ml) as it stood when the benchmark
   was defined.  It is kept here, frozen, so that a later change to the
   library's arithmetic moves the rounds but not the gauge. *)

let mask26 = (1 lsl 26) - 1

let reduce10 (o : int array) h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 =
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
  let h9 = h9 - (c lsl 25) and h0 = h0 + (19 * c) in
  let c = h0 asr 26 in
  let h0 = h0 - (c lsl 26) and h1 = h1 + c in
  o.(0) <- h0 lor (h1 lsl 26);
  o.(1) <- h2 lor (h3 lsl 26);
  o.(2) <- h4 lor (h5 lsl 26);
  o.(3) <- h6 lor (h7 lsl 26);
  o.(4) <- h8 lor (h9 lsl 26)

let mul (o : int array) (a : int array) (b : int array) =
  let a0 = a.(0) and a1 = a.(1) and a2 = a.(2) and a3 = a.(3) and a4 = a.(4) in
  let b0 = b.(0) and b1 = b.(1) and b2 = b.(2) and b3 = b.(3) and b4 = b.(4) in
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
  let f1_2 = 2 * f1 and f3_2 = 2 * f3 and f5_2 = 2 * f5 and f7_2 = 2 * f7 in
  let f9_2 = 2 * f9 in
  let g1_19 = 19 * g1 and g2_19 = 19 * g2 and g3_19 = 19 * g3 in
  let g4_19 = 19 * g4 and g5_19 = 19 * g5 and g6_19 = 19 * g6 in
  let g7_19 = 19 * g7 and g8_19 = 19 * g8 and g9_19 = 19 * g9 in
  let h0 =
    (f0 * g0) + (f1_2 * g9_19) + (f2 * g8_19) + (f3_2 * g7_19)
    + (f4 * g6_19) + (f5_2 * g5_19) + (f6 * g4_19) + (f7_2 * g3_19)
    + (f8 * g2_19) + (f9_2 * g1_19)
  in
  let h1 =
    (f0 * g1) + (f1 * g0) + (f2 * g9_19) + (f3 * g8_19) + (f4 * g7_19)
    + (f5 * g6_19) + (f6 * g5_19) + (f7 * g4_19) + (f8 * g3_19)
    + (f9 * g2_19)
  in
  let h2 =
    (f0 * g2) + (f1_2 * g1) + (f2 * g0) + (f3_2 * g9_19) + (f4 * g8_19)
    + (f5_2 * g7_19) + (f6 * g6_19) + (f7_2 * g5_19) + (f8 * g4_19)
    + (f9_2 * g3_19)
  in
  let h3 =
    (f0 * g3) + (f1 * g2) + (f2 * g1) + (f3 * g0) + (f4 * g9_19)
    + (f5 * g8_19) + (f6 * g7_19) + (f7 * g6_19) + (f8 * g5_19)
    + (f9 * g4_19)
  in
  let h4 =
    (f0 * g4) + (f1_2 * g3) + (f2 * g2) + (f3_2 * g1) + (f4 * g0)
    + (f5_2 * g9_19) + (f6 * g8_19) + (f7_2 * g7_19) + (f8 * g6_19)
    + (f9_2 * g5_19)
  in
  let h5 =
    (f0 * g5) + (f1 * g4) + (f2 * g3) + (f3 * g2) + (f4 * g1) + (f5 * g0)
    + (f6 * g9_19) + (f7 * g8_19) + (f8 * g7_19) + (f9 * g6_19)
  in
  let h6 =
    (f0 * g6) + (f1_2 * g5) + (f2 * g4) + (f3_2 * g3) + (f4 * g2)
    + (f5_2 * g1) + (f6 * g0) + (f7_2 * g9_19) + (f8 * g8_19)
    + (f9_2 * g7_19)
  in
  let h7 =
    (f0 * g7) + (f1 * g6) + (f2 * g5) + (f3 * g4) + (f4 * g3) + (f5 * g2)
    + (f6 * g1) + (f7 * g0) + (f8 * g9_19) + (f9 * g8_19)
  in
  let h8 =
    (f0 * g8) + (f1_2 * g7) + (f2 * g6) + (f3_2 * g5) + (f4 * g4)
    + (f5_2 * g3) + (f6 * g2) + (f7_2 * g1) + (f8 * g0) + (f9_2 * g9_19)
  in
  let h9 =
    (f0 * g9) + (f1 * g8) + (f2 * g7) + (f3 * g6) + (f4 * g5) + (f5 * g4)
    + (f6 * g3) + (f7 * g2) + (f8 * g1) + (f9 * g0)
  in
  reduce10 o h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

let iterations = 60_000

(* The kernel's time on the host the benchmark was defined on (a 2-vCPU
   Xeon VM) when no neighbour slowed it, so that times at the reference
   speed read about as the wall clock does on a quiet host. *)
let nominal_ms = 5.0

let sample () =
  let a = [| 0x123456789; 0x2468acf13; 0x369d0369d; 0x48d159e26; 0x5b05b05b0 |] in
  let b = [| 0x3456789ab; 0x1111111111; 0x2222222222; 0x3333333333; 0x1234567 |] in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iterations do
    mul a a b
  done;
  ignore (Sys.opaque_identity a);
  1000. *. (Unix.gettimeofday () -. t0)
