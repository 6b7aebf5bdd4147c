(* The seed field arithmetic modulo 2^255 - 19, kept verbatim as a
   differential-testing oracle: TweetNaCl's representation of 16 limbs of
   16 bits in native ints (every intermediate stays far below OCaml's
   63-bit limit).

   The production field is {!Fe25519} (ten radix-2^25.5 words); `test/prop/`
   checks every Fe25519 operation against this module over thousands of
   seeded cases, and `bench/main.exe` §Crypto measures the speedup of the
   replacement against this baseline.  Do not optimise this module — its
   only job is to be obviously faithful to the seed implementation. *)

type t = int array (* 16 limbs *)

let create () = Array.make 16 0

let of_limbs l =
  if Array.length l <> 16 then invalid_arg "Fe25519_ref.of_limbs";
  Array.copy l

let copy = Array.copy
let blit ~src ~dst = Array.blit src 0 dst 0 16

let zero () = create ()

let one () =
  let a = create () in
  a.(0) <- 1;
  a

(* Carry propagation; limbs may be negative mid-computation, so shifts
   are arithmetic. *)
let carry (o : t) =
  for i = 0 to 15 do
    o.(i) <- o.(i) + (1 lsl 16);
    let c = o.(i) asr 16 in
    if i < 15 then o.(i + 1) <- o.(i + 1) + c - 1
    else o.(0) <- o.(0) + (38 * (c - 1));
    o.(i) <- o.(i) - (c lsl 16)
  done

(* Constant-time conditional swap when b = 1. *)
let cswap (p : t) (q : t) b =
  let c = lnot (b - 1) in
  for i = 0 to 15 do
    let t = c land (p.(i) lxor q.(i)) in
    p.(i) <- p.(i) lxor t;
    q.(i) <- q.(i) lxor t
  done

let pack (n : t) =
  let m = create () in
  let t = Array.copy n in
  carry t;
  carry t;
  carry t;
  for _ = 0 to 1 do
    m.(0) <- t.(0) - 0xffed;
    for i = 1 to 14 do
      m.(i) <- t.(i) - 0xffff - ((m.(i - 1) asr 16) land 1);
      m.(i - 1) <- m.(i - 1) land 0xffff
    done;
    m.(15) <- t.(15) - 0x7fff - ((m.(14) asr 16) land 1);
    let b = (m.(15) asr 16) land 1 in
    m.(14) <- m.(14) land 0xffff;
    cswap t m (1 - b)
  done;
  let o = Bytes.create 32 in
  for i = 0 to 15 do
    Bytes_util.set_u8 o (2 * i) (t.(i) land 0xff);
    Bytes_util.set_u8 o ((2 * i) + 1) ((t.(i) lsr 8) land 0xff)
  done;
  o

let unpack (n : bytes) : t =
  let o = create () in
  for i = 0 to 15 do
    o.(i) <-
      Bytes_util.get_u8 n (2 * i) lor (Bytes_util.get_u8 n ((2 * i) + 1) lsl 8)
  done;
  o.(15) <- o.(15) land 0x7fff;
  o

let add (o : t) (a : t) (b : t) =
  for i = 0 to 15 do
    o.(i) <- a.(i) + b.(i)
  done

let sub (o : t) (a : t) (b : t) =
  for i = 0 to 15 do
    o.(i) <- a.(i) - b.(i)
  done

(* Schoolbook multiply with 2^256 = 38 (mod p) folding.  The temporary is
   preallocated per call site via TLS-free simple allocation; profiling
   showed allocation is not the bottleneck (the 256 multiplies are). *)
let mul (o : t) (a : t) (b : t) =
  let t = Array.make 31 0 in
  for i = 0 to 15 do
    let ai = a.(i) in
    for j = 0 to 15 do
      t.(i + j) <- t.(i + j) + (ai * b.(j))
    done
  done;
  for i = 0 to 14 do
    t.(i) <- t.(i) + (38 * t.(i + 16))
  done;
  Array.blit t 0 o 0 16;
  carry o;
  carry o

let square (o : t) (a : t) = mul o a a

(* Inversion by Fermat: a^(p-2). *)
let invert (o : t) (i : t) =
  let c = Array.copy i in
  for a = 253 downto 0 do
    square c c;
    if a <> 2 && a <> 4 then mul c c i
  done;
  Array.blit c 0 o 0 16

(* a^((p-5)/8), the square-root helper used when decompressing Edwards
   points (RFC 8032 §5.1.3). *)
let pow2523 (o : t) (i : t) =
  let c = Array.copy i in
  for a = 250 downto 0 do
    square c c;
    if a <> 1 then mul c c i
  done;
  Array.blit c 0 o 0 16

(* Parity of the canonical representation. *)
let parity (a : t) = Bytes_util.get_u8 (pack a) 0 land 1

let equal (a : t) (b : t) = Bytes_util.ct_equal (pack a) (pack b)
