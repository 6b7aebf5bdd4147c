(* ChaCha20 stream cipher (RFC 8439), rewritten for throughput: the
   16-word state lives in unboxed [nativeint] locals (see {!Word}), one
   loop runs the ten double rounds, and keystream is combined with the
   buffer eight bytes at a time through the 64-bit load and store
   primitives.  The seed implementation survives verbatim as
   [Chacha20_ref] (test/oracles) and is the differential oracle for this
   module (test/prop/prop_chacha.ml); wire bytes are bit-identical by
   construction and by pinned transcript digests. *)

let mask32 = 0xffffffff
let key_len = 32
let nonce_len = 12

(* The "expand 32-byte k" sigma constants. *)
let c0 = 0x61707865
let c1 = 0x3320646e
let c2 = 0x79622d32
let c3 = 0x6b206574

let init_state ~key ~nonce ~counter =
  if Bytes.length key <> key_len then invalid_arg "Chacha20: bad key length";
  if Bytes.length nonce <> nonce_len then
    invalid_arg "Chacha20: bad nonce length";
  let st = Array.make 16 0 in
  st.(0) <- c0;
  st.(1) <- c1;
  st.(2) <- c2;
  st.(3) <- c3;
  for i = 0 to 7 do
    st.(4 + i) <- Bytes_util.le32 key (4 * i)
  done;
  st.(12) <- counter land mask32;
  for i = 0 to 2 do
    st.(13 + i) <- Bytes_util.le32 nonce (4 * i)
  done;
  st

(* [x] rotated left by [k], as a 32-bit word: bits 32 and up of [x] are
   masked off first, and the result's are junk. *)
let[@inline] rotl x k =
  let open Word in
  let x = x land 0xffffffffn in
  (x lsl k) lor (x lsr Stdlib.( - ) 32 k)

(* One block of keystream words for state [st] at block counter [ctr],
   written into [ws].(0..15) as clean 32-bit words.  [st].(12) is ignored
   in favour of [ctr] so the multi-block loops never write the state
   array back.

   The sixteen words are [nativeint] refs local to this function: no
   closure captures them, so they compile to unboxed registers and stack
   slots and the loop allocates nothing.  Each pass of the loop is one
   double round, the RFC 8439 quarter-rounds written out once: four
   column rounds, then four diagonal rounds.

   Additions are left unmasked.  The low 32 bits of a sum or an xor
   depend only on the low 32 bits of its operands, and a 64-bit sum
   wraps harmlessly, so junk above bit 31 never reaches the keystream:
   [rotl], the one step that moves bits down, masks its operand first,
   and the final words are masked once.

   The serialized keystream is bit-identical to [Chacha20_ref] (gated by
   test/prop/prop_chacha.ml). *)
let block_words st ctr ws =
  let open Word in
  let x0 = ref (of_int (Array.unsafe_get st 0)) in
  let x1 = ref (of_int (Array.unsafe_get st 1)) in
  let x2 = ref (of_int (Array.unsafe_get st 2)) in
  let x3 = ref (of_int (Array.unsafe_get st 3)) in
  let x4 = ref (of_int (Array.unsafe_get st 4)) in
  let x5 = ref (of_int (Array.unsafe_get st 5)) in
  let x6 = ref (of_int (Array.unsafe_get st 6)) in
  let x7 = ref (of_int (Array.unsafe_get st 7)) in
  let x8 = ref (of_int (Array.unsafe_get st 8)) in
  let x9 = ref (of_int (Array.unsafe_get st 9)) in
  let x10 = ref (of_int (Array.unsafe_get st 10)) in
  let x11 = ref (of_int (Array.unsafe_get st 11)) in
  let x12 = ref (of_int ctr) in
  let x13 = ref (of_int (Array.unsafe_get st 13)) in
  let x14 = ref (of_int (Array.unsafe_get st 14)) in
  let x15 = ref (of_int (Array.unsafe_get st 15)) in
  for _ = 1 to 10 do
    (* column rounds *)
    x0 := !x0 + !x4;
    x12 := rotl (!x12 lxor !x0) 16;
    x8 := !x8 + !x12;
    x4 := rotl (!x4 lxor !x8) 12;
    x0 := !x0 + !x4;
    x12 := rotl (!x12 lxor !x0) 8;
    x8 := !x8 + !x12;
    x4 := rotl (!x4 lxor !x8) 7;
    x1 := !x1 + !x5;
    x13 := rotl (!x13 lxor !x1) 16;
    x9 := !x9 + !x13;
    x5 := rotl (!x5 lxor !x9) 12;
    x1 := !x1 + !x5;
    x13 := rotl (!x13 lxor !x1) 8;
    x9 := !x9 + !x13;
    x5 := rotl (!x5 lxor !x9) 7;
    x2 := !x2 + !x6;
    x14 := rotl (!x14 lxor !x2) 16;
    x10 := !x10 + !x14;
    x6 := rotl (!x6 lxor !x10) 12;
    x2 := !x2 + !x6;
    x14 := rotl (!x14 lxor !x2) 8;
    x10 := !x10 + !x14;
    x6 := rotl (!x6 lxor !x10) 7;
    x3 := !x3 + !x7;
    x15 := rotl (!x15 lxor !x3) 16;
    x11 := !x11 + !x15;
    x7 := rotl (!x7 lxor !x11) 12;
    x3 := !x3 + !x7;
    x15 := rotl (!x15 lxor !x3) 8;
    x11 := !x11 + !x15;
    x7 := rotl (!x7 lxor !x11) 7;
    (* diagonal rounds *)
    x0 := !x0 + !x5;
    x15 := rotl (!x15 lxor !x0) 16;
    x10 := !x10 + !x15;
    x5 := rotl (!x5 lxor !x10) 12;
    x0 := !x0 + !x5;
    x15 := rotl (!x15 lxor !x0) 8;
    x10 := !x10 + !x15;
    x5 := rotl (!x5 lxor !x10) 7;
    x1 := !x1 + !x6;
    x12 := rotl (!x12 lxor !x1) 16;
    x11 := !x11 + !x12;
    x6 := rotl (!x6 lxor !x11) 12;
    x1 := !x1 + !x6;
    x12 := rotl (!x12 lxor !x1) 8;
    x11 := !x11 + !x12;
    x6 := rotl (!x6 lxor !x11) 7;
    x2 := !x2 + !x7;
    x13 := rotl (!x13 lxor !x2) 16;
    x8 := !x8 + !x13;
    x7 := rotl (!x7 lxor !x8) 12;
    x2 := !x2 + !x7;
    x13 := rotl (!x13 lxor !x2) 8;
    x8 := !x8 + !x13;
    x7 := rotl (!x7 lxor !x8) 7;
    x3 := !x3 + !x4;
    x14 := rotl (!x14 lxor !x3) 16;
    x9 := !x9 + !x14;
    x4 := rotl (!x4 lxor !x9) 12;
    x3 := !x3 + !x4;
    x14 := rotl (!x14 lxor !x3) 8;
    x9 := !x9 + !x14;
    x4 := rotl (!x4 lxor !x9) 7
  done;
  Array.unsafe_set ws 0
    (to_int ((!x0 + of_int (Array.unsafe_get st 0)) land 0xffffffffn));
  Array.unsafe_set ws 1
    (to_int ((!x1 + of_int (Array.unsafe_get st 1)) land 0xffffffffn));
  Array.unsafe_set ws 2
    (to_int ((!x2 + of_int (Array.unsafe_get st 2)) land 0xffffffffn));
  Array.unsafe_set ws 3
    (to_int ((!x3 + of_int (Array.unsafe_get st 3)) land 0xffffffffn));
  Array.unsafe_set ws 4
    (to_int ((!x4 + of_int (Array.unsafe_get st 4)) land 0xffffffffn));
  Array.unsafe_set ws 5
    (to_int ((!x5 + of_int (Array.unsafe_get st 5)) land 0xffffffffn));
  Array.unsafe_set ws 6
    (to_int ((!x6 + of_int (Array.unsafe_get st 6)) land 0xffffffffn));
  Array.unsafe_set ws 7
    (to_int ((!x7 + of_int (Array.unsafe_get st 7)) land 0xffffffffn));
  Array.unsafe_set ws 8
    (to_int ((!x8 + of_int (Array.unsafe_get st 8)) land 0xffffffffn));
  Array.unsafe_set ws 9
    (to_int ((!x9 + of_int (Array.unsafe_get st 9)) land 0xffffffffn));
  Array.unsafe_set ws 10
    (to_int ((!x10 + of_int (Array.unsafe_get st 10)) land 0xffffffffn));
  Array.unsafe_set ws 11
    (to_int ((!x11 + of_int (Array.unsafe_get st 11)) land 0xffffffffn));
  Array.unsafe_set ws 12
    (to_int ((!x12 + of_int ctr) land 0xffffffffn));
  Array.unsafe_set ws 13
    (to_int ((!x13 + of_int (Array.unsafe_get st 13)) land 0xffffffffn));
  Array.unsafe_set ws 14
    (to_int ((!x14 + of_int (Array.unsafe_get st 14)) land 0xffffffffn));
  Array.unsafe_set ws 15
    (to_int ((!x15 + of_int (Array.unsafe_get st 15)) land 0xffffffffn))

(* Keystream words [2i] and [2i + 1] of [ws] as the eight little-endian
   bytes they serialize to, in host order for [Word.get64u]/[set64u]. *)
let[@inline] pair ws i =
  let lo = Word.of_int (Array.unsafe_get ws (2 * i))
  and hi = Word.of_int (Array.unsafe_get ws ((2 * i) + 1)) in
  let x = Word.(to_int64 (lo lor (hi lsl 32))) in
  if Word.big_endian () then Word.bswap64 x else x

(* Byte [j] (0..63) of the block in [ws]. *)
let[@inline] byte ws j =
  (Array.unsafe_get ws (j lsr 2) lsr (8 * (j land 3))) land 0xff

let check_range what b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg ("Chacha20: " ^ what ^ " range out of bounds")

(* XOR [len] keystream bytes (starting at block [counter]) into [dst] at
   [dst_off] from [src] at [src_off]; this is encryption and decryption.
   Full blocks go eight bytes at a time; the sub-block tail is read
   byte-wise off one last block's words.  The state-taking variant lets
   Aead reuse one [init_state] for poly-key derivation and the cipher
   stream; [st].(12) is ignored in favour of [counter]. *)
let xor_with_state st ~counter ~src ~src_off ~dst ~dst_off ~len =
  check_range "src" src src_off len;
  check_range "dst" dst dst_off len;
  let ws = Array.make 16 0 in
  let ctr = ref (counter land mask32) in
  let pos = ref 0 in
  while len - !pos >= 64 do
    block_words st !ctr ws;
    ctr := (!ctr + 1) land mask32;
    let so = src_off + !pos and dofs = dst_off + !pos in
    for i = 0 to 7 do
      Word.set64u dst
        (dofs + (8 * i))
        (Int64.logxor (Word.get64u src (so + (8 * i))) (pair ws i))
    done;
    pos := !pos + 64
  done;
  if !pos < len then begin
    block_words st !ctr ws;
    for i = !pos to len - 1 do
      Bytes.unsafe_set dst (dst_off + i)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get src (src_off + i))
           lxor byte ws (i - !pos)))
    done
  end

let xor_into ~key ~nonce ~counter ~src ~src_off ~dst ~dst_off ~len =
  let st = init_state ~key ~nonce ~counter in
  xor_with_state st ~counter ~src ~src_off ~dst ~dst_off ~len

(* Raw keystream straight into [buf] — no zero buffer to allocate and
   encrypt (the DRBG draws through this). *)
let keystream_into ~key ~nonce ~counter buf ~off ~len =
  check_range "dst" buf off len;
  let st = init_state ~key ~nonce ~counter in
  let ws = Array.make 16 0 in
  let ctr = ref st.(12) in
  let pos = ref 0 in
  while len - !pos >= 64 do
    block_words st !ctr ws;
    ctr := (!ctr + 1) land mask32;
    for i = 0 to 7 do
      Word.set64u buf (off + !pos + (8 * i)) (pair ws i)
    done;
    pos := !pos + 64
  done;
  if !pos < len then begin
    block_words st !ctr ws;
    for i = !pos to len - 1 do
      Bytes.unsafe_set buf (off + i) (Char.unsafe_chr (byte ws (i - !pos)))
    done
  end

let block ~key ~nonce ~counter =
  let out = Bytes.create 64 in
  keystream_into ~key ~nonce ~counter out ~off:0 ~len:64;
  out

let encrypt ?(counter = 1) ~key ~nonce src =
  let len = Bytes.length src in
  let dst = Bytes.create len in
  xor_into ~key ~nonce ~counter ~src ~src_off:0 ~dst ~dst_off:0 ~len;
  dst

let keystream ~key ~nonce ~counter len =
  let dst = Bytes.create len in
  keystream_into ~key ~nonce ~counter dst ~off:0 ~len;
  dst
