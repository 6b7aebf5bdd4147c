(* SHA-256 (FIPS 180-4) on untagged machine words.

   [compress] keeps the eight working variables and a sixteen-word
   message window in [nativeint] refs local to it, over {!Word}'s
   primitives: no closure captures them and every helper is [@inline],
   so they compile to unboxed registers and stack slots, and a block
   allocates nothing (a tier-1 test counts minor words).  Its body is
   sixteen rounds, the roles of a..h rotated by renaming rather than by
   moves, run four times; from the second pass on, each window word is
   first replaced in place by the schedule word sixteen rounds on.

   A word is a 32-bit value in a 64-bit register.  The low 32 bits of a
   sum or an xor depend only on the low 32 bits of its operands, so sums
   are left unmasked until they are stored; only a right shift reads
   above bit 31, and every value shifted right is clean: the working
   variables and window words are stored masked, one mask per assignment.
   A rotation of a clean word x is one shift of the doubled word
   x lor (x lsl 32), whose low 32 bits are the rotated word, and the
   three rotations of a Σ share it.

   Message words are loaded two at a time, big-endian, and the digest
   stored the same way, through the host-order 64-bit primitives with a
   byte swap on a little-endian host (a compile-time branch).  The tagged
   implementation this replaced survives as [Sha256_ref] (test/oracles),
   the differential oracle of test/prop/prop_symmetric.ml. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type t = {
  h : int array; (* 8 chaining words *)
  buf : bytes; (* partial block, 64 bytes *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes so far *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
  }

let copy t = { t with h = Array.copy t.h; buf = Bytes.copy t.buf }

let blit ~src ~dst =
  Array.blit src.h 0 dst.h 0 8;
  Bytes.blit src.buf 0 dst.buf 0 src.buf_len;
  dst.buf_len <- src.buf_len;
  dst.total <- src.total

let[@inline] load_be64 b i =
  let x = Word.get64u b i in
  Word.of_int64 (if Word.big_endian () then x else Word.bswap64 x)

let[@inline] store_be64 b i v =
  let x = Word.to_int64 v in
  Word.set64u b i (if Word.big_endian () then x else Word.bswap64 x)

let[@inline] k_at j i = Word.of_int (Array.unsafe_get k ((16 * j) + i))

(* Σ0, Σ1 (rounds) and σ0, σ1 (schedule) of a clean word; their bits
   above 31 are junk. *)
let[@inline] sum0 x =
  let open Word in
  let xx = x lor (x lsl 32) in
  (xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)

let[@inline] sum1 x =
  let open Word in
  let xx = x lor (x lsl 32) in
  (xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)

let[@inline] sig0 x =
  let open Word in
  let xx = x lor (x lsl 32) in
  (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)

let[@inline] sig1 x =
  let open Word in
  let xx = x lor (x lsl 32) in
  (xx lsr 17) lxor (xx lsr 19) lxor (x lsr 10)

let[@inline] ch e f g = Word.(g lxor (e land (f lxor g)))
let[@inline] maj a b c = Word.(a land b lor (c land (a lor b)))

(* One block of [m] at [off] (64 bytes, unchecked: every caller passes a
   whole block) into the chaining words [hv] (always a state's own
   8-word array). *)
let compress hv m off =
  let open Word in
  let a = ref (of_int (Array.unsafe_get hv 0))
  and b = ref (of_int (Array.unsafe_get hv 1))
  and c = ref (of_int (Array.unsafe_get hv 2))
  and d = ref (of_int (Array.unsafe_get hv 3))
  and e = ref (of_int (Array.unsafe_get hv 4))
  and f = ref (of_int (Array.unsafe_get hv 5))
  and g = ref (of_int (Array.unsafe_get hv 6))
  and h = ref (of_int (Array.unsafe_get hv 7)) in
  let x = load_be64 m off in
  let w0 = ref (x lsr 32) and w1 = ref (x land 0xffffffffn) in
  let x = load_be64 m (Stdlib.( + ) off 8) in
  let w2 = ref (x lsr 32) and w3 = ref (x land 0xffffffffn) in
  let x = load_be64 m (Stdlib.( + ) off 16) in
  let w4 = ref (x lsr 32) and w5 = ref (x land 0xffffffffn) in
  let x = load_be64 m (Stdlib.( + ) off 24) in
  let w6 = ref (x lsr 32) and w7 = ref (x land 0xffffffffn) in
  let x = load_be64 m (Stdlib.( + ) off 32) in
  let w8 = ref (x lsr 32) and w9 = ref (x land 0xffffffffn) in
  let x = load_be64 m (Stdlib.( + ) off 40) in
  let w10 = ref (x lsr 32) and w11 = ref (x land 0xffffffffn) in
  let x = load_be64 m (Stdlib.( + ) off 48) in
  let w12 = ref (x lsr 32) and w13 = ref (x land 0xffffffffn) in
  let x = load_be64 m (Stdlib.( + ) off 56) in
  let w14 = ref (x lsr 32) and w15 = ref (x land 0xffffffffn) in
  for j = 0 to 3 do
    if j > 0 then begin
      w0 := (!w0 + sig0 !w1 + !w9 + sig1 !w14) land 0xffffffffn;
      w1 := (!w1 + sig0 !w2 + !w10 + sig1 !w15) land 0xffffffffn;
      w2 := (!w2 + sig0 !w3 + !w11 + sig1 !w0) land 0xffffffffn;
      w3 := (!w3 + sig0 !w4 + !w12 + sig1 !w1) land 0xffffffffn;
      w4 := (!w4 + sig0 !w5 + !w13 + sig1 !w2) land 0xffffffffn;
      w5 := (!w5 + sig0 !w6 + !w14 + sig1 !w3) land 0xffffffffn;
      w6 := (!w6 + sig0 !w7 + !w15 + sig1 !w4) land 0xffffffffn;
      w7 := (!w7 + sig0 !w8 + !w0 + sig1 !w5) land 0xffffffffn;
      w8 := (!w8 + sig0 !w9 + !w1 + sig1 !w6) land 0xffffffffn;
      w9 := (!w9 + sig0 !w10 + !w2 + sig1 !w7) land 0xffffffffn;
      w10 := (!w10 + sig0 !w11 + !w3 + sig1 !w8) land 0xffffffffn;
      w11 := (!w11 + sig0 !w12 + !w4 + sig1 !w9) land 0xffffffffn;
      w12 := (!w12 + sig0 !w13 + !w5 + sig1 !w10) land 0xffffffffn;
      w13 := (!w13 + sig0 !w14 + !w6 + sig1 !w11) land 0xffffffffn;
      w14 := (!w14 + sig0 !w15 + !w7 + sig1 !w12) land 0xffffffffn;
      w15 := (!w15 + sig0 !w0 + !w8 + sig1 !w13) land 0xffffffffn
    end;
    let t = !h + sum1 !e + ch !e !f !g + k_at j 0 + !w0 in
    d := (!d + t) land 0xffffffffn;
    h := (t + sum0 !a + maj !a !b !c) land 0xffffffffn;
    let t = !g + sum1 !d + ch !d !e !f + k_at j 1 + !w1 in
    c := (!c + t) land 0xffffffffn;
    g := (t + sum0 !h + maj !h !a !b) land 0xffffffffn;
    let t = !f + sum1 !c + ch !c !d !e + k_at j 2 + !w2 in
    b := (!b + t) land 0xffffffffn;
    f := (t + sum0 !g + maj !g !h !a) land 0xffffffffn;
    let t = !e + sum1 !b + ch !b !c !d + k_at j 3 + !w3 in
    a := (!a + t) land 0xffffffffn;
    e := (t + sum0 !f + maj !f !g !h) land 0xffffffffn;
    let t = !d + sum1 !a + ch !a !b !c + k_at j 4 + !w4 in
    h := (!h + t) land 0xffffffffn;
    d := (t + sum0 !e + maj !e !f !g) land 0xffffffffn;
    let t = !c + sum1 !h + ch !h !a !b + k_at j 5 + !w5 in
    g := (!g + t) land 0xffffffffn;
    c := (t + sum0 !d + maj !d !e !f) land 0xffffffffn;
    let t = !b + sum1 !g + ch !g !h !a + k_at j 6 + !w6 in
    f := (!f + t) land 0xffffffffn;
    b := (t + sum0 !c + maj !c !d !e) land 0xffffffffn;
    let t = !a + sum1 !f + ch !f !g !h + k_at j 7 + !w7 in
    e := (!e + t) land 0xffffffffn;
    a := (t + sum0 !b + maj !b !c !d) land 0xffffffffn;
    let t = !h + sum1 !e + ch !e !f !g + k_at j 8 + !w8 in
    d := (!d + t) land 0xffffffffn;
    h := (t + sum0 !a + maj !a !b !c) land 0xffffffffn;
    let t = !g + sum1 !d + ch !d !e !f + k_at j 9 + !w9 in
    c := (!c + t) land 0xffffffffn;
    g := (t + sum0 !h + maj !h !a !b) land 0xffffffffn;
    let t = !f + sum1 !c + ch !c !d !e + k_at j 10 + !w10 in
    b := (!b + t) land 0xffffffffn;
    f := (t + sum0 !g + maj !g !h !a) land 0xffffffffn;
    let t = !e + sum1 !b + ch !b !c !d + k_at j 11 + !w11 in
    a := (!a + t) land 0xffffffffn;
    e := (t + sum0 !f + maj !f !g !h) land 0xffffffffn;
    let t = !d + sum1 !a + ch !a !b !c + k_at j 12 + !w12 in
    h := (!h + t) land 0xffffffffn;
    d := (t + sum0 !e + maj !e !f !g) land 0xffffffffn;
    let t = !c + sum1 !h + ch !h !a !b + k_at j 13 + !w13 in
    g := (!g + t) land 0xffffffffn;
    c := (t + sum0 !d + maj !d !e !f) land 0xffffffffn;
    let t = !b + sum1 !g + ch !g !h !a + k_at j 14 + !w14 in
    f := (!f + t) land 0xffffffffn;
    b := (t + sum0 !c + maj !c !d !e) land 0xffffffffn;
    let t = !a + sum1 !f + ch !f !g !h + k_at j 15 + !w15 in
    e := (!e + t) land 0xffffffffn;
    a := (t + sum0 !b + maj !b !c !d) land 0xffffffffn

  done;
  Array.unsafe_set hv 0 (to_int ((of_int (Array.unsafe_get hv 0) + !a) land 0xffffffffn));
  Array.unsafe_set hv 1 (to_int ((of_int (Array.unsafe_get hv 1) + !b) land 0xffffffffn));
  Array.unsafe_set hv 2 (to_int ((of_int (Array.unsafe_get hv 2) + !c) land 0xffffffffn));
  Array.unsafe_set hv 3 (to_int ((of_int (Array.unsafe_get hv 3) + !d) land 0xffffffffn));
  Array.unsafe_set hv 4 (to_int ((of_int (Array.unsafe_get hv 4) + !e) land 0xffffffffn));
  Array.unsafe_set hv 5 (to_int ((of_int (Array.unsafe_get hv 5) + !f) land 0xffffffffn));
  Array.unsafe_set hv 6 (to_int ((of_int (Array.unsafe_get hv 6) + !g) land 0xffffffffn));
  Array.unsafe_set hv 7 (to_int ((of_int (Array.unsafe_get hv 7) + !h) land 0xffffffffn))

let feed_sub t data ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Sha256.feed_sub: range out of bounds";
  t.total <- t.total + len;
  let pos = ref off and fin = off + len in
  (* Fill any partial block first. *)
  if t.buf_len > 0 then begin
    let want = if len < 64 - t.buf_len then len else 64 - t.buf_len in
    Bytes.blit data off t.buf t.buf_len want;
    t.buf_len <- t.buf_len + want;
    pos := off + want;
    if t.buf_len = 64 then begin
      compress t.h t.buf 0;
      t.buf_len <- 0
    end
  end;
  while fin - !pos >= 64 do
    compress t.h data !pos;
    pos := !pos + 64
  done;
  if !pos < fin then begin
    Bytes.blit data !pos t.buf 0 (fin - !pos);
    t.buf_len <- fin - !pos
  end

let feed t data = feed_sub t data ~off:0 ~len:(Bytes.length data)

(* Finalize a copy of the chaining words, so [t] can keep being fed.  The
   padding is written into [t.buf] past its [buf_len] bytes, which no
   reader looks at; only when the length does not fit after them (56 or
   more bytes buffered) is a second, all-zero block allocated. *)
let get_into t dst ~off =
  if off < 0 || off > Bytes.length dst - 32 then
    invalid_arg "Sha256.get_into: range out of bounds";
  let h = Array.copy t.h and rem = t.buf_len in
  Bytes.set t.buf rem '\x80';
  let last =
    if rem < 56 then begin
      Bytes.fill t.buf (rem + 1) (55 - rem) '\000';
      t.buf
    end
    else begin
      Bytes.fill t.buf (rem + 1) (63 - rem) '\000';
      compress h t.buf 0;
      Bytes.make 64 '\000'
    end
  in
  store_be64 last 56 (Word.of_int (t.total * 8));
  compress h last 0;
  for i = 0 to 3 do
    let hi = Word.of_int h.(2 * i) and lo = Word.of_int h.((2 * i) + 1) in
    store_be64 dst (off + (8 * i)) Word.((hi lsl 32) lor lo)
  done

let get t =
  let out = Bytes.create 32 in
  get_into t out ~off:0;
  out

let digest data =
  let t = init () in
  feed t data;
  get t

let digest_list datas =
  let t = init () in
  List.iter (feed t) datas;
  get t

let digest_string s = digest (Bytes.unsafe_of_string s)
