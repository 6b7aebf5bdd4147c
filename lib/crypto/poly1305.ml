(* Poly1305 one-time authenticator (RFC 8439), following the 26-bit limb
   schedule of poly1305-donna-32, on untagged machine words.

   One kernel, [absorb], takes every block: the bulk of a message, a
   buffered block, the AEAD length block and the padded final block.  It
   holds r, 5r and the accumulator in [nativeint] locals (see {!Word})
   for the whole run, loads each block as two little-endian 64-bit
   words, and allocates nothing.  Bounds: clamped, r's limbs are below
   2^26, so 5r's are below 2^28.33.  An accumulator limb entering a block
   is below 2^26 + 2^9 (limb 1 takes the last carry, below 2^8.1) and a
   message limb below 2^26, so each of a column's five products is below
   2^27.01 x 2^28.33 and a column below 2^58: far inside the signed
   64-bit word, so every right shift acts on a nonnegative value.  The
   tagged implementation this replaced survives as [Poly1305_ref]
   (test/oracles), the differential oracle of test/prop/prop_symmetric.ml. *)

let key_len = 32
let limb_mask = 0x3ffffff

type t = {
  r : int array; (* 5 clamped 26-bit limbs of r *)
  pad : int array; (* 4 32-bit words of s *)
  h : int array; (* 5 accumulator limbs *)
  buf : bytes; (* partial block, then room for the length block *)
  mutable buf_len : int;
}

let init key =
  if Bytes.length key <> key_len then invalid_arg "Poly1305: bad key length";
  let le32 = Bytes_util.le32 in
  {
    r =
      [|
        le32 key 0 land 0x3ffffff;
        (le32 key 3 lsr 2) land 0x3ffff03;
        (le32 key 6 lsr 4) land 0x3ffc0ff;
        (le32 key 9 lsr 6) land 0x3f03fff;
        (le32 key 12 lsr 8) land 0x00fffff;
      |];
    pad = [| le32 key 16; le32 key 20; le32 key 24; le32 key 28 |];
    h = Array.make 5 0;
    buf = Bytes.create 32;
    buf_len = 0;
  }

(* Initialize straight from the eight little-endian 32-bit words of the
   key, ignoring bits above 31 (the AEAD derives its one-time key as
   ChaCha20 block-0 keystream words).  Equivalent to [init] on the
   serialized 32 bytes; the word-sliced clamping below is the byte-offset
   le32 reads of [init] rewritten on 32-bit word boundaries. *)
let init_from_words ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 ~w7 =
  let m = 0xffffffff in
  let w0 = w0 land m
  and w1 = w1 land m
  and w2 = w2 land m
  and w3 = w3 land m in
  {
    r =
      [|
        w0 land 0x3ffffff;
        ((w0 lsr 26) lor (w1 lsl 6)) land 0x3ffff03;
        ((w1 lsr 20) lor (w2 lsl 12)) land 0x3ffc0ff;
        ((w2 lsr 14) lor (w3 lsl 18)) land 0x3f03fff;
        (w3 lsr 8) land 0x00fffff;
      |];
    pad = [| w4 land m; w5 land m; w6 land m; w7 land m |];
    h = Array.make 5 0;
    buf = Bytes.create 32;
    buf_len = 0;
  }

let[@inline] load_le64 b i =
  let x = Word.get64u b i in
  Word.of_int64 (if Word.big_endian () then Word.bswap64 x else x)

(* Absorb [nblocks] 16-byte blocks of [m] at [off], adding [hibit] to
   each block's top limb: 2^24 for a whole block, 0 for the padded final
   one.  Unchecked loads: every caller range-checks first. *)
let absorb t m off nblocks hibit =
  let open Word in
  let r = t.r and acc = t.h in
  let r0 = of_int (Array.unsafe_get r 0)
  and r1 = of_int (Array.unsafe_get r 1)
  and r2 = of_int (Array.unsafe_get r 2)
  and r3 = of_int (Array.unsafe_get r 3)
  and r4 = of_int (Array.unsafe_get r 4) in
  let s1 = r1 * 5n and s2 = r2 * 5n and s3 = r3 * 5n and s4 = r4 * 5n in
  let h0 = ref (of_int (Array.unsafe_get acc 0))
  and h1 = ref (of_int (Array.unsafe_get acc 1))
  and h2 = ref (of_int (Array.unsafe_get acc 2))
  and h3 = ref (of_int (Array.unsafe_get acc 3))
  and h4 = ref (of_int (Array.unsafe_get acc 4)) in
  let hibit = of_int hibit and pos = ref off in
  for _ = 1 to nblocks do
    let lo = load_le64 m !pos and hi = load_le64 m (Stdlib.( + ) !pos 8) in
    let a0 = !h0 + (lo land 0x3ffffffn)
    and a1 = !h1 + ((lo lsr 26) land 0x3ffffffn)
    and a2 = !h2 + (((lo lsr 52) lor (hi lsl 12)) land 0x3ffffffn)
    and a3 = !h3 + ((hi lsr 14) land 0x3ffffffn)
    and a4 = !h4 + ((hi lsr 40) lor hibit) in
    let d0 = (a0 * r0) + (a1 * s4) + (a2 * s3) + (a3 * s2) + (a4 * s1) in
    let d1 = (a0 * r1) + (a1 * r0) + (a2 * s4) + (a3 * s3) + (a4 * s2) in
    let d2 = (a0 * r2) + (a1 * r1) + (a2 * r0) + (a3 * s4) + (a4 * s3) in
    let d3 = (a0 * r3) + (a1 * r2) + (a2 * r1) + (a3 * r0) + (a4 * s4) in
    let d4 = (a0 * r4) + (a1 * r3) + (a2 * r2) + (a3 * r1) + (a4 * r0) in
    let d1 = d1 + (d0 lsr 26) in
    let d2 = d2 + (d1 lsr 26) in
    let d3 = d3 + (d2 lsr 26) in
    let d4 = d4 + (d3 lsr 26) in
    let c0 = (d0 land 0x3ffffffn) + ((d4 lsr 26) * 5n) in
    h0 := c0 land 0x3ffffffn;
    h1 := (d1 land 0x3ffffffn) + (c0 lsr 26);
    h2 := d2 land 0x3ffffffn;
    h3 := d3 land 0x3ffffffn;
    h4 := d4 land 0x3ffffffn;
    pos := Stdlib.( + ) !pos 16
  done;
  Array.unsafe_set acc 0 (to_int !h0);
  Array.unsafe_set acc 1 (to_int !h1);
  Array.unsafe_set acc 2 (to_int !h2);
  Array.unsafe_set acc 3 (to_int !h3);
  Array.unsafe_set acc 4 (to_int !h4)

let feed_sub t data ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Poly1305.feed_sub: range out of bounds";
  let pos = ref off in
  let fin = off + len in
  if t.buf_len > 0 then begin
    let want = min (16 - t.buf_len) len in
    Bytes.blit data off t.buf t.buf_len want;
    t.buf_len <- t.buf_len + want;
    pos := off + want;
    if t.buf_len = 16 then begin
      absorb t t.buf 0 1 (1 lsl 24);
      t.buf_len <- 0
    end
  end;
  let nblocks = (fin - !pos) lsr 4 in
  if nblocks > 0 then begin
    absorb t data !pos nblocks (1 lsl 24);
    pos := !pos + (nblocks lsl 4)
  end;
  if !pos < fin then begin
    Bytes.blit data !pos t.buf 0 (fin - !pos);
    t.buf_len <- fin - !pos
  end

let feed t data = feed_sub t data ~off:0 ~len:(Bytes.length data)

(* Absorb the AEAD length block, le64(aad_len) ‖ le64(ct_len), built in
   the second half of [buf], which holds nothing else. *)
let absorb_lens t ~aad_len ~ct_len =
  Bytes_util.store_le64 t.buf 16 aad_len;
  Bytes_util.store_le64 t.buf 24 ct_len;
  feed_sub t t.buf ~off:16 ~len:16

let finish_into t dst ~off =
  if t.buf_len > 0 then begin
    (* Pad the final partial block in place with 0x01 then zeros;
       hibit = 0. *)
    Bytes.set t.buf t.buf_len '\x01';
    Bytes.fill t.buf (t.buf_len + 1) (15 - t.buf_len) '\000';
    absorb t t.buf 0 1 0
  end;
  (* Fully carry h. *)
  let h0 = ref t.h.(0)
  and h1 = ref t.h.(1)
  and h2 = ref t.h.(2)
  and h3 = ref t.h.(3)
  and h4 = ref t.h.(4) in
  let c = ref (!h1 lsr 26) in
  h1 := !h1 land limb_mask;
  h2 := !h2 + !c;
  c := !h2 lsr 26;
  h2 := !h2 land limb_mask;
  h3 := !h3 + !c;
  c := !h3 lsr 26;
  h3 := !h3 land limb_mask;
  h4 := !h4 + !c;
  c := !h4 lsr 26;
  h4 := !h4 land limb_mask;
  h0 := !h0 + (!c * 5);
  c := !h0 lsr 26;
  h0 := !h0 land limb_mask;
  h1 := !h1 + !c;
  (* Compute h + (-p) = h - (2^130 - 5). *)
  let g0 = !h0 + 5 in
  let c = g0 lsr 26 in
  let g0 = g0 land limb_mask in
  let g1 = !h1 + c in
  let c = g1 lsr 26 in
  let g1 = g1 land limb_mask in
  let g2 = !h2 + c in
  let c = g2 lsr 26 in
  let g2 = g2 land limb_mask in
  let g3 = !h3 + c in
  let c = g3 lsr 26 in
  let g3 = g3 land limb_mask in
  let g4 = !h4 + c - (1 lsl 26) in
  (* Branchless select: g if h >= p (g4 non-negative), else h. *)
  let mask = lnot (g4 asr 62) in
  let nmask = lnot mask in
  let h0 = !h0 land nmask lor (g0 land mask) in
  let h1 = !h1 land nmask lor (g1 land mask) in
  let h2 = !h2 land nmask lor (g2 land mask) in
  let h3 = !h3 land nmask lor (g3 land mask) in
  let h4 = !h4 land nmask lor (g4 land mask) in
  (* Repack into 32-bit words and add the pad with carry. *)
  let w0 = (h0 lor (h1 lsl 26)) land 0xffffffff in
  let w1 = ((h1 lsr 6) lor (h2 lsl 20)) land 0xffffffff in
  let w2 = ((h2 lsr 12) lor (h3 lsl 14)) land 0xffffffff in
  let w3 = ((h3 lsr 18) lor (h4 lsl 8)) land 0xffffffff in
  let f = w0 + t.pad.(0) in
  let o0 = f land 0xffffffff in
  let f = w1 + t.pad.(1) + (f lsr 32) in
  let o1 = f land 0xffffffff in
  let f = w2 + t.pad.(2) + (f lsr 32) in
  let o2 = f land 0xffffffff in
  let f = w3 + t.pad.(3) + (f lsr 32) in
  let o3 = f land 0xffffffff in
  Bytes_util.store_le32 dst off o0;
  Bytes_util.store_le32 dst (off + 4) o1;
  Bytes_util.store_le32 dst (off + 8) o2;
  Bytes_util.store_le32 dst (off + 12) o3

let finish t =
  let out = Bytes.create 16 in
  finish_into t out ~off:0;
  out

let mac ~key data =
  let t = init key in
  feed t data;
  finish t
