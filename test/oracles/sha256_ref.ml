(* Reference SHA-256 (FIPS 180-4): the tagged implementation that
   {!Sha256}'s untagged kernel replaced, kept verbatim as its
   differential oracle (test/prop/prop_symmetric.ml) and as the baseline of
   bench/main.exe's [sha256_speedup_vs_ref].  Do not optimise this
   module: its value is that it stays simple and obviously correct.
   All word arithmetic is done on native ints masked to 32 bits; OCaml's
   63-bit ints comfortably hold every intermediate.  The byte helpers
   are this module's own copies of the ones it called in Bytes_util. *)

let mask32 = 0xffffffff
let get_u8 b i = Char.code (Bytes.get b i)
let set_u8 b i v = Bytes.set b i (Char.chr (v land 0xff))

let be32 b i =
  (get_u8 b i lsl 24)
  lor (get_u8 b (i + 1) lsl 16)
  lor (get_u8 b (i + 2) lsl 8)
  lor get_u8 b (i + 3)

let store_be32 b i v =
  set_u8 b i (v lsr 24);
  set_u8 b (i + 1) (v lsr 16);
  set_u8 b (i + 2) (v lsr 8);
  set_u8 b (i + 3) v

let store_be64 b i v =
  store_be32 b i ((v lsr 32) land 0xffffffff);
  store_be32 b (i + 4) (v land 0xffffffff)

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

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

let compress h block off =
  let w = Array.make 64 0 in
  for i = 0 to 15 do
    w.(i) <- be32 block (off + (4 * i))
  done;
  for i = 16 to 63 do
    let s0 =
      rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3)
    in
    let s1 =
      rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10)
    in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land !g) in
    let temp1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask32 in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    let temp2 = (s0 + maj) land mask32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

let feed t data =
  let len = Bytes.length data in
  t.total <- t.total + len;
  let pos = ref 0 in
  (* Fill any partial block first. *)
  if t.buf_len > 0 then begin
    let want = min (64 - t.buf_len) len in
    Bytes.blit data 0 t.buf t.buf_len want;
    t.buf_len <- t.buf_len + want;
    pos := want;
    if t.buf_len = 64 then begin
      compress t.h t.buf 0;
      t.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress t.h data !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit data !pos t.buf 0 (len - !pos);
    t.buf_len <- len - !pos
  end

let get t =
  (* Finalize a copy so [t] can keep being fed. *)
  let h = Array.copy t.h in
  let bit_len = t.total * 8 in
  let rem = t.buf_len in
  let pad_len = if rem < 56 then 64 - rem else 128 - rem in
  let tail = Bytes.make pad_len '\000' in
  Bytes.set tail 0 '\x80';
  store_be64 tail (pad_len - 8) bit_len;
  let last = Bytes.create (rem + pad_len) in
  Bytes.blit t.buf 0 last 0 rem;
  Bytes.blit tail 0 last rem pad_len;
  compress h last 0;
  if rem + pad_len > 64 then compress h last 64;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    store_be32 out (4 * i) h.(i)
  done;
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
