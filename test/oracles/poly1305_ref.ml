(* Reference Poly1305 (RFC 8439): the tagged implementation that
   {!Poly1305}'s untagged kernel replaced, kept verbatim as its
   differential oracle (test/prop/prop_symmetric.ml) and as the baseline of
   bench/main.exe's [poly1305_speedup_vs_ref].  Do not optimise this
   module.  It follows the 26-bit limb schedule of poly1305-donna-32.
   Every intermediate fits a 63-bit native int: h limbs stay below 2^27
   and the five-term products below 2^58.  The byte helpers are this
   module's own copies of the ones it called in Bytes_util. *)

let get_u8 b i = Char.code (Bytes.get b i)
let set_u8 b i v = Bytes.set b i (Char.chr (v land 0xff))

let le32 b i =
  get_u8 b i
  lor (get_u8 b (i + 1) lsl 8)
  lor (get_u8 b (i + 2) lsl 16)
  lor (get_u8 b (i + 3) lsl 24)

let store_le32 b i v =
  set_u8 b i v;
  set_u8 b (i + 1) (v lsr 8);
  set_u8 b (i + 2) (v lsr 16);
  set_u8 b (i + 3) (v lsr 24)

let store_le64 b i v =
  store_le32 b i (v land 0xffffffff);
  store_le32 b (i + 4) ((v lsr 32) land 0xffffffff)

(* Unchecked little-endian load through two native-endian 16-bit
   primitives, byte by byte on a big-endian host. *)
external unsafe_get16_ne : bytes -> int -> int = "%caml_bytes_get16u"

let unsafe_le16 b i =
  if Sys.big_endian then
    Char.code (Bytes.unsafe_get b i)
    lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 8)
  else unsafe_get16_ne b i

let unsafe_le32 b i = unsafe_le16 b i lor (unsafe_le16 b (i + 2) lsl 16)

let key_len = 32
let tag_len = 16
let limb_mask = 0x3ffffff

type t = {
  r : int array; (* 5 clamped 26-bit limbs of r *)
  pad : int array; (* 4 32-bit words of s *)
  h : int array; (* 5 accumulator limbs *)
  buf : bytes; (* partial block *)
  mutable buf_len : int;
}

let init key =
  if Bytes.length key <> key_len then invalid_arg "Poly1305: bad key length";
  let le32 = le32 in
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
    buf = Bytes.create 16;
    buf_len = 0;
  }

(* Initialize straight from the eight little-endian 32-bit words of the
   key, ignoring bits above 31 (the AEAD derives its one-time key as
   ChaCha20 block-0 keystream words, whose high bits are dirty by
   design — see Chacha20.block_words).  Equivalent to [init] on the
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
    buf = Bytes.create 16;
    buf_len = 0;
  }

(* Absorb one block given its five 26-bit limb increments (the message
   block plus the high bit, already sliced). *)
let absorb_limbs t m0 m1 m2 m3 m4 =
  let r0 = t.r.(0)
  and r1 = t.r.(1)
  and r2 = t.r.(2)
  and r3 = t.r.(3)
  and r4 = t.r.(4) in
  let s1 = r1 * 5
  and s2 = r2 * 5
  and s3 = r3 * 5
  and s4 = r4 * 5 in
  let h0 = t.h.(0) + m0 in
  let h1 = t.h.(1) + m1 in
  let h2 = t.h.(2) + m2 in
  let h3 = t.h.(3) + m3 in
  let h4 = t.h.(4) + m4 in
  let d0 = (h0 * r0) + (h1 * s4) + (h2 * s3) + (h3 * s2) + (h4 * s1) in
  let d1 = (h0 * r1) + (h1 * r0) + (h2 * s4) + (h3 * s3) + (h4 * s2) in
  let d2 = (h0 * r2) + (h1 * r1) + (h2 * r0) + (h3 * s4) + (h4 * s3) in
  let d3 = (h0 * r3) + (h1 * r2) + (h2 * r1) + (h3 * r0) + (h4 * s4) in
  let d4 = (h0 * r4) + (h1 * r3) + (h2 * r2) + (h3 * r1) + (h4 * r0) in
  let c = d0 lsr 26 in
  let h0 = d0 land limb_mask in
  let d1 = d1 + c in
  let c = d1 lsr 26 in
  let h1 = d1 land limb_mask in
  let d2 = d2 + c in
  let c = d2 lsr 26 in
  let h2 = d2 land limb_mask in
  let d3 = d3 + c in
  let c = d3 lsr 26 in
  let h3 = d3 land limb_mask in
  let d4 = d4 + c in
  let c = d4 lsr 26 in
  let h4 = d4 land limb_mask in
  let h0 = h0 + (c * 5) in
  let c = h0 lsr 26 in
  let h0 = h0 land limb_mask in
  let h1 = h1 + c in
  t.h.(0) <- h0;
  t.h.(1) <- h1;
  t.h.(2) <- h2;
  t.h.(3) <- h3;
  t.h.(4) <- h4

(* Absorb one 16-byte block at [off]; [hibit] is [1 lsl 24] for full
   blocks and [0] for the padded final partial block.  Unsafe loads:
   every caller ([feed_sub] and the buffered paths) range-checks before
   absorbing. *)
let absorb_block t m off hibit =
  let le32 = unsafe_le32 in
  absorb_limbs t
    (le32 m off land limb_mask)
    ((le32 m (off + 3) lsr 2) land limb_mask)
    ((le32 m (off + 6) lsr 4) land limb_mask)
    ((le32 m (off + 9) lsr 6) land limb_mask)
    ((le32 m (off + 12) lsr 8) lor hibit)

(* The bulk path: [nblocks] full blocks at [off], with r, s and the h
   accumulator in locals for the whole run — the per-block cost is the
   25 multiplies, not t.r/t.h traffic.  Caller range-checks. *)
let absorb_blocks t m ~off ~nblocks =
  let r0 = t.r.(0)
  and r1 = t.r.(1)
  and r2 = t.r.(2)
  and r3 = t.r.(3)
  and r4 = t.r.(4) in
  let s1 = r1 * 5
  and s2 = r2 * 5
  and s3 = r3 * 5
  and s4 = r4 * 5 in
  let le32 = unsafe_le32 in
  let rec go h0 h1 h2 h3 h4 off n =
    if n = 0 then begin
      t.h.(0) <- h0;
      t.h.(1) <- h1;
      t.h.(2) <- h2;
      t.h.(3) <- h3;
      t.h.(4) <- h4
    end
    else begin
      let h0 = h0 + (le32 m off land limb_mask) in
      let h1 = h1 + ((le32 m (off + 3) lsr 2) land limb_mask) in
      let h2 = h2 + ((le32 m (off + 6) lsr 4) land limb_mask) in
      let h3 = h3 + ((le32 m (off + 9) lsr 6) land limb_mask) in
      let h4 = h4 + ((le32 m (off + 12) lsr 8) lor (1 lsl 24)) in
      let d0 = (h0 * r0) + (h1 * s4) + (h2 * s3) + (h3 * s2) + (h4 * s1) in
      let d1 = (h0 * r1) + (h1 * r0) + (h2 * s4) + (h3 * s3) + (h4 * s2) in
      let d2 = (h0 * r2) + (h1 * r1) + (h2 * r0) + (h3 * s4) + (h4 * s3) in
      let d3 = (h0 * r3) + (h1 * r2) + (h2 * r1) + (h3 * r0) + (h4 * s4) in
      let d4 = (h0 * r4) + (h1 * r3) + (h2 * r2) + (h3 * r1) + (h4 * r0) in
      let c = d0 lsr 26 in
      let h0 = d0 land limb_mask in
      let d1 = d1 + c in
      let c = d1 lsr 26 in
      let h1 = d1 land limb_mask in
      let d2 = d2 + c in
      let c = d2 lsr 26 in
      let h2 = d2 land limb_mask in
      let d3 = d3 + c in
      let c = d3 lsr 26 in
      let h3 = d3 land limb_mask in
      let d4 = d4 + c in
      let c = d4 lsr 26 in
      let h4 = d4 land limb_mask in
      let h0 = h0 + (c * 5) in
      let c = h0 lsr 26 in
      let h0 = h0 land limb_mask in
      let h1 = h1 + c in
      go h0 h1 h2 h3 h4 (off + 16) (n - 1)
    end
  in
  go t.h.(0) t.h.(1) t.h.(2) t.h.(3) t.h.(4) off nblocks

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
      absorb_block t t.buf 0 (1 lsl 24);
      t.buf_len <- 0
    end
  end;
  let nblocks = (fin - !pos) lsr 4 in
  if nblocks > 0 then begin
    absorb_blocks t data ~off:!pos ~nblocks;
    pos := !pos + (nblocks lsl 4)
  end;
  if !pos < fin then begin
    Bytes.blit data !pos t.buf 0 (fin - !pos);
    t.buf_len <- fin - !pos
  end

let feed t data = feed_sub t data ~off:0 ~len:(Bytes.length data)

(* Absorb the AEAD length block — le64(aad_len) ‖ le64(ct_len) — without
   materializing its 16 bytes.  Callers (Aead) are block-aligned here (it
   follows a pad16), so the buffered path is only a cold fallback. *)
let absorb_lens t ~aad_len ~ct_len =
  if t.buf_len <> 0 then begin
    let lens = Bytes.create 16 in
    store_le64 lens 0 aad_len;
    store_le64 lens 8 ct_len;
    feed t lens
  end
  else begin
    let m = 0xffffffff in
    let w0 = aad_len land m
    and w1 = (aad_len lsr 32) land m
    and w2 = ct_len land m
    and w3 = (ct_len lsr 32) land m in
    absorb_limbs t (w0 land limb_mask)
      (((w0 lsr 26) lor (w1 lsl 6)) land limb_mask)
      (((w1 lsr 20) lor (w2 lsl 12)) land limb_mask)
      (((w2 lsr 14) lor (w3 lsl 18)) land limb_mask)
      ((w3 lsr 8) lor (1 lsl 24))
  end

let finish_into t dst ~off =
  if t.buf_len > 0 then begin
    (* Pad the final partial block with 0x01 then zeros; hibit = 0. *)
    let block = Bytes.make 16 '\000' in
    Bytes.blit t.buf 0 block 0 t.buf_len;
    Bytes.set block t.buf_len '\x01';
    absorb_block t block 0 0
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
  store_le32 dst off o0;
  store_le32 dst (off + 4) o1;
  store_le32 dst (off + 8) o2;
  store_le32 dst (off + 12) o3

let finish t =
  let out = Bytes.create 16 in
  finish_into t out ~off:0;
  out

let mac ~key data =
  let t = init key in
  feed t data;
  finish t

let verify ~key ~tag data = Bytes_util.ct_equal tag (mac ~key data)
