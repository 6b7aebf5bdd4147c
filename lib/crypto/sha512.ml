(* SHA-512 (FIPS 180-4).  Words are 64-bit, so arithmetic uses Int64
   (OCaml's native int is 63 bits).  Needed by Ed25519 (RFC 8032). *)

let k =
  [|
    0x428a2f98d728ae22L; 0x7137449123ef65cdL; 0xb5c0fbcfec4d3b2fL;
    0xe9b5dba58189dbbcL; 0x3956c25bf348b538L; 0x59f111f1b605d019L;
    0x923f82a4af194f9bL; 0xab1c5ed5da6d8118L; 0xd807aa98a3030242L;
    0x12835b0145706fbeL; 0x243185be4ee4b28cL; 0x550c7dc3d5ffb4e2L;
    0x72be5d74f27b896fL; 0x80deb1fe3b1696b1L; 0x9bdc06a725c71235L;
    0xc19bf174cf692694L; 0xe49b69c19ef14ad2L; 0xefbe4786384f25e3L;
    0x0fc19dc68b8cd5b5L; 0x240ca1cc77ac9c65L; 0x2de92c6f592b0275L;
    0x4a7484aa6ea6e483L; 0x5cb0a9dcbd41fbd4L; 0x76f988da831153b5L;
    0x983e5152ee66dfabL; 0xa831c66d2db43210L; 0xb00327c898fb213fL;
    0xbf597fc7beef0ee4L; 0xc6e00bf33da88fc2L; 0xd5a79147930aa725L;
    0x06ca6351e003826fL; 0x142929670a0e6e70L; 0x27b70a8546d22ffcL;
    0x2e1b21385c26c926L; 0x4d2c6dfc5ac42aedL; 0x53380d139d95b3dfL;
    0x650a73548baf63deL; 0x766a0abb3c77b2a8L; 0x81c2c92e47edaee6L;
    0x92722c851482353bL; 0xa2bfe8a14cf10364L; 0xa81a664bbc423001L;
    0xc24b8b70d0f89791L; 0xc76c51a30654be30L; 0xd192e819d6ef5218L;
    0xd69906245565a910L; 0xf40e35855771202aL; 0x106aa07032bbd1b8L;
    0x19a4c116b8d2d0c8L; 0x1e376c085141ab53L; 0x2748774cdf8eeb99L;
    0x34b0bcb5e19b48a8L; 0x391c0cb3c5c95a63L; 0x4ed8aa4ae3418acbL;
    0x5b9cca4f7763e373L; 0x682e6ff3d6b2b8a3L; 0x748f82ee5defb2fcL;
    0x78a5636f43172f60L; 0x84c87814a1f0ab72L; 0x8cc702081a6439ecL;
    0x90befffa23631e28L; 0xa4506cebde82bde9L; 0xbef9a3f7b2c67915L;
    0xc67178f2e372532bL; 0xca273eceea26619cL; 0xd186b8c721c0c207L;
    0xeada7dd6cde0eb1eL; 0xf57d4f7fee6ed178L; 0x06f067aa72176fbaL;
    0x0a637dc5a2c898a6L; 0x113f9804bef90daeL; 0x1b710b35131c471bL;
    0x28db77f523047d84L; 0x32caab7b40c72493L; 0x3c9ebe0a15c9bebcL;
    0x431d67c49c100d4cL; 0x4cc5d4becb3e42b6L; 0x597f299cfc657e2aL;
    0x5fcb6fab3ad6faecL; 0x6c44198c4a475817L;
  |]

type t = {
  h : int64 array;
  buf : bytes; (* 128-byte block *)
  mutable buf_len : int;
  mutable total : int;
}

let init () =
  {
    h =
      [|
        0x6a09e667f3bcc908L; 0xbb67ae8584caa73bL; 0x3c6ef372fe94f82bL;
        0xa54ff53a5f1d36f1L; 0x510e527fade682d1L; 0x9b05688c2b3e6c1fL;
        0x1f83d9abfb41bd6bL; 0x5be0cd19137e2179L;
      |];
    buf = Bytes.create 128;
    buf_len = 0;
    total = 0;
  }

let ( +% ) = Int64.add
let ( ^% ) = Int64.logxor
let ( &% ) = Int64.logand

let rotr x n = Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x (64 - n))

let be64 b i =
  let g j = Int64.of_int (Char.code (Bytes.get b (i + j))) in
  let acc = ref 0L in
  for j = 0 to 7 do
    acc := Int64.logor (Int64.shift_left !acc 8) (g j)
  done;
  !acc

let store_be64 b i v =
  for j = 0 to 7 do
    Bytes.set b (i + j)
      (Char.chr
         (Int64.to_int (Int64.shift_right_logical v (8 * (7 - j))) land 0xff))
  done

let compress h block off =
  let w = Array.make 80 0L in
  for i = 0 to 15 do
    w.(i) <- be64 block (off + (8 * i))
  done;
  for i = 16 to 79 do
    let s0 =
      rotr w.(i - 15) 1 ^% rotr w.(i - 15) 8
      ^% Int64.shift_right_logical w.(i - 15) 7
    in
    let s1 =
      rotr w.(i - 2) 19 ^% rotr w.(i - 2) 61
      ^% Int64.shift_right_logical w.(i - 2) 6
    in
    w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for i = 0 to 79 do
    let s1 = rotr !e 14 ^% rotr !e 18 ^% rotr !e 41 in
    (* NB: [&%] binds looser than [^%] in OCaml, hence the parens. *)
    let ch = (!e &% !f) ^% (Int64.lognot !e &% !g) in
    let temp1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
    let s0 = rotr !a 28 ^% rotr !a 34 ^% rotr !a 39 in
    let maj = (!a &% !b) ^% (!a &% !c) ^% (!b &% !c) in
    let temp2 = s0 +% maj in
    hh := !g;
    g := !f;
    f := !e;
    e := !d +% temp1;
    d := !c;
    c := !b;
    b := !a;
    a := temp1 +% temp2
  done;
  h.(0) <- h.(0) +% !a;
  h.(1) <- h.(1) +% !b;
  h.(2) <- h.(2) +% !c;
  h.(3) <- h.(3) +% !d;
  h.(4) <- h.(4) +% !e;
  h.(5) <- h.(5) +% !f;
  h.(6) <- h.(6) +% !g;
  h.(7) <- h.(7) +% !hh

let feed t data =
  let len = Bytes.length data in
  t.total <- t.total + len;
  let pos = ref 0 in
  if t.buf_len > 0 then begin
    let want = min (128 - t.buf_len) len in
    Bytes.blit data 0 t.buf t.buf_len want;
    t.buf_len <- t.buf_len + want;
    pos := want;
    if t.buf_len = 128 then begin
      compress t.h t.buf 0;
      t.buf_len <- 0
    end
  end;
  while len - !pos >= 128 do
    compress t.h data !pos;
    pos := !pos + 128
  done;
  if !pos < len then begin
    Bytes.blit data !pos t.buf 0 (len - !pos);
    t.buf_len <- len - !pos
  end

let get t =
  let h = Array.copy t.h in
  let bit_len = t.total * 8 in
  let rem = t.buf_len in
  let pad_len = if rem < 112 then 128 - rem else 256 - rem in
  let tail = Bytes.make pad_len '\000' in
  Bytes.set tail 0 '\x80';
  (* 128-bit length field; message lengths here fit in 62 bits. *)
  store_be64 tail (pad_len - 8) (Int64.of_int bit_len);
  let last = Bytes.cat (Bytes.sub t.buf 0 rem) tail in
  compress h last 0;
  if Bytes.length last > 128 then compress h last 128;
  let out = Bytes.create 64 in
  for i = 0 to 7 do
    store_be64 out (8 * i) h.(i)
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

