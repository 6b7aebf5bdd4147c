(* ChaCha20 stream cipher (RFC 8439), rewritten for throughput: the
   16-word state lives in unboxed native-int locals, one loop runs the
   ten double rounds, and keystream is combined with the buffer eight
   bytes at a time through the word helpers in {!Bytes_util}.  The seed
   implementation survives verbatim as [Chacha20_ref] (test/oracles) and
   is the differential oracle for this module (test/prop/prop_chacha.ml);
   wire bytes are bit-identical by construction and by pinned transcript
   digests. *)

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

(* [x] rotated left by [k], as a 32-bit word.  Inlined with a constant
   [k], the two masks fold to constants below 2^31, which fit an x86
   imm32 even after OCaml's tag bit (a [land 0xffffffff] needs a 10-byte
   movabs per occurrence).  The masks read only bits 0..31, so the
   result is exactly rot32(x land 2^32-1) whatever lies above. *)
let[@inline] rotl x k =
  ((x land ((1 lsl (32 - k)) - 1)) lsl k)
  lor ((x lsr (32 - k)) land ((1 lsl k) - 1))

(* One block of keystream words for state [st] at block counter [ctr],
   written into [ws].(0..15).  [st].(12) is ignored in favour of [ctr] so
   the multi-block loops never write the state array back.

   The sixteen words are local refs, as in [Sha256.compress]: no closure
   captures them, so they compile to unboxed native-int locals and the
   loop allocates nothing.  Each pass of the loop is one double round,
   the RFC 8439 quarter-rounds written out once: four column rounds,
   then four diagonal rounds.

   Additions are left unmasked, and no word is ever clamped.  The low 32
   bits of a sum or an xor depend only on the low 32 bits of its
   operands, and [rotl] reads nothing above them, so junk above bit 31
   never reaches the keystream.  It stays small, too: the xor-rotate
   steps hand back clean 32-bit words (x4..x7, x12..x15), so only the
   add-accumulating words (x0..x3, x8..x11) grow, each by at most four
   clean addends per double round.  Every word, the final state adds
   included, stays below 42 * 2^32 < 2^38, far inside the 63-bit native
   int.  Those final words stay dirty: every consumer of [ws] stores
   through 16-bit primitives that truncate in hardware ({!Bytes_util}).

   The serialized keystream is bit-identical to [Chacha20_ref] (gated by
   test/prop/prop_chacha.ml). *)
let block_words st ctr ws =
  let x0 = ref (Array.unsafe_get st 0) in
  let x1 = ref (Array.unsafe_get st 1) in
  let x2 = ref (Array.unsafe_get st 2) in
  let x3 = ref (Array.unsafe_get st 3) in
  let x4 = ref (Array.unsafe_get st 4) in
  let x5 = ref (Array.unsafe_get st 5) in
  let x6 = ref (Array.unsafe_get st 6) in
  let x7 = ref (Array.unsafe_get st 7) in
  let x8 = ref (Array.unsafe_get st 8) in
  let x9 = ref (Array.unsafe_get st 9) in
  let x10 = ref (Array.unsafe_get st 10) in
  let x11 = ref (Array.unsafe_get st 11) in
  let x12 = ref ctr in
  let x13 = ref (Array.unsafe_get st 13) in
  let x14 = ref (Array.unsafe_get st 14) in
  let x15 = ref (Array.unsafe_get st 15) in
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
  Array.unsafe_set ws 0 (!x0 + Array.unsafe_get st 0);
  Array.unsafe_set ws 1 (!x1 + Array.unsafe_get st 1);
  Array.unsafe_set ws 2 (!x2 + Array.unsafe_get st 2);
  Array.unsafe_set ws 3 (!x3 + Array.unsafe_get st 3);
  Array.unsafe_set ws 4 (!x4 + Array.unsafe_get st 4);
  Array.unsafe_set ws 5 (!x5 + Array.unsafe_get st 5);
  Array.unsafe_set ws 6 (!x6 + Array.unsafe_get st 6);
  Array.unsafe_set ws 7 (!x7 + Array.unsafe_get st 7);
  Array.unsafe_set ws 8 (!x8 + Array.unsafe_get st 8);
  Array.unsafe_set ws 9 (!x9 + Array.unsafe_get st 9);
  Array.unsafe_set ws 10 (!x10 + Array.unsafe_get st 10);
  Array.unsafe_set ws 11 (!x11 + Array.unsafe_get st 11);
  Array.unsafe_set ws 12 (!x12 + ctr);
  Array.unsafe_set ws 13 (!x13 + Array.unsafe_get st 13);
  Array.unsafe_set ws 14 (!x14 + Array.unsafe_get st 14);
  Array.unsafe_set ws 15 (!x15 + Array.unsafe_get st 15)

(* Keystream words of the block in [ws], serialized into [buf] (>= 64
   bytes at [off], bounds already validated by the caller). *)
let store_block ws buf off =
  for i = 0 to 7 do
    Bytes_util.unsafe_store64_le buf
      (off + (8 * i))
      ~lo:(Array.unsafe_get ws (2 * i))
      ~hi:(Array.unsafe_get ws ((2 * i) + 1))
  done

let check_range what b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg ("Chacha20: " ^ what ^ " range out of bounds")

(* XOR [len] keystream bytes (starting at block [counter]) into [dst] at
   [dst_off] from [src] at [src_off]; this is encryption and decryption.
   Full blocks go eight bytes at a time; the sub-block tail serializes
   one last block and finishes byte-wise.  The state-taking variant lets
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
      Bytes_util.unsafe_xor64_le ~src ~src_off:(so + (8 * i)) ~dst
        ~dst_off:(dofs + (8 * i))
        ~lo:(Array.unsafe_get ws (2 * i))
        ~hi:(Array.unsafe_get ws ((2 * i) + 1))
    done;
    pos := !pos + 64
  done;
  if !pos < len then begin
    block_words st !ctr ws;
    let tail = Bytes.create 64 in
    store_block ws tail 0;
    for i = !pos to len - 1 do
      Bytes_util.unsafe_set_u8 dst (dst_off + i)
        (Bytes_util.unsafe_get_u8 src (src_off + i)
        lxor Bytes_util.unsafe_get_u8 tail (i - !pos))
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
    store_block ws buf (off + !pos);
    pos := !pos + 64
  done;
  if !pos < len then begin
    block_words st !ctr ws;
    let tail = Bytes.create 64 in
    store_block ws tail 0;
    Bytes.blit tail 0 buf (off + !pos) (len - !pos)
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

let decrypt = encrypt

let keystream ~key ~nonce ~counter len =
  let dst = Bytes.create len in
  keystream_into ~key ~nonce ~counter dst ~off:0 ~len;
  dst
