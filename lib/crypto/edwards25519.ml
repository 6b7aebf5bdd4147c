(* The twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 over Fe25519
   (edwards25519, RFC 8032 §5.1), birationally equivalent to X25519's
   Montgomery curve.  Shared by Ed25519 and by Curve25519's fixed-base
   path, so it sits below both and depends only on the field.

   Points are held in extended coordinates (X, Y, Z, T) with x = X/Z,
   y = Y/Z, xy = T/Z.  Addition, mixed addition and doubling follow ref10
   (Hisil-Wong-Carter-Dawson 2008 with a = -1); the addition is complete
   on this curve, so it also doubles and accepts the identity.

   Comb (ref10's ge_scalarmult_base, over any fixed point)
   -------------------------------------------------------
   A scalar k < 2^255 is recoded into 64 signed radix-16 digits
   -8 <= e_i <= 8 with k = sum e_i 16^i, and

     kP = 16 * sum_i e_(2i+1) 256^i P  +  sum_i e_(2i) 256^i P.

   Row i of P's table holds j * 256^i * P for j = 1..8 in affine
   (y+x, y-x, 2dxy) form, so each digit costs one mixed addition of a
   row entry (negated for a negative digit), and the whole multiplication
   64 mixed additions and 4 doublings: with the final inversion, ~750
   field multiplications and squarings against the ladder's ~2,560.
   Building a table costs about three ladders, so it pays for a point
   that is multiplied many times: the base point B, and (Curve25519) a
   server's long-lived public key.

   Constant time: the recoding is arithmetic only, every row is scanned
   in full and the entry is picked with masks (the row index is public),
   and negation is a masked swap.  The scan is the comb's inner loop, so
   it computes its masks once per digit and reads the table unchecked
   between two checked reads that bound the row.  B's table is built
   eagerly at module initialisation, never lazily: OCaml 5 raises
   CamlinternalLazy.Undefined when two domains force one lazy value,
   and servers wrap noise onions from pool domains.  Every table is
   read-only once built.

   Carry discipline: the contract in fe25519.mli.  [sub]'s second
   argument is always carried (a mul/square output, a table entry, or an
   explicitly [carry]ed sum), and every multiplication's operands stay
   inside Fe25519's input bound (limbs < 2^53.1).  Most are at most one
   lazy add/sub away from carried values; the exception is G = D + C in
   [add] and [madd], two stacked adds with D = 2Z lazy, whose limbs stay
   below 3 (2^51 + 2^36) < 2^52.6. *)

type point = { x : Fe25519.t; y : Fe25519.t; z : Fe25519.t; t : Fe25519.t }

(* Curve constants as canonical little-endian encodings, independent of
   Fe25519's limb representation: d = -121665/121666, 2d, I = sqrt(-1),
   and the base point B = (x, 4/5).  test/prop re-derives them
   algebraically. *)
let fe_of_hex h = Fe25519.unpack (Bytes_util.of_hex h)

let d =
  fe_of_hex "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352"

let d2 =
  fe_of_hex "59f1b226949bd6eb56b183829a14e00030d1f3eef2808e19e7fcdf56dcd90624"

let sqrt_m1 =
  fe_of_hex "b0a00e4a271beec478e42fad0618432fa7d7fb3d99004d2b0bdfc14f8024832b"

let base_x =
  fe_of_hex "1ad5258f602d56c9b2a7259560c72c695cdcd6fd31e2a4c0fe536ecdd3366921"

let base_y =
  fe_of_hex "5866666666666666666666666666666666666666666666666666666666666666"

let fe_zero = Fe25519.zero ()
let fe_one = Fe25519.one ()

let identity () =
  Fe25519.{ x = zero (); y = one (); z = one (); t = zero () }

let base_point () =
  let t = Fe25519.create () in
  Fe25519.mul t base_x base_y;
  Fe25519.{ x = copy base_x; y = copy base_y; z = one (); t }

let copy_point p =
  Fe25519.{ x = copy p.x; y = copy p.y; z = copy p.z; t = copy p.t }

(* Temporaries of the point formulas, and the comb entry [select] picks
   (yp, ym, xy2d = y+x, y-x, 2dxy; [neg] holds -xy2d).  Allocated once
   per scalar multiplication, so the per-digit loop allocates nothing. *)
type scratch = {
  a : Fe25519.t;
  b : Fe25519.t;
  c : Fe25519.t;
  e : Fe25519.t;
  f : Fe25519.t;
  g : Fe25519.t;
  h : Fe25519.t;
  yp : Fe25519.t;
  ym : Fe25519.t;
  xy2d : Fe25519.t;
  neg : Fe25519.t;
}

let scratch () =
  Fe25519.
    {
      a = create ();
      b = create ();
      c = create ();
      e = create ();
      f = create ();
      g = create ();
      h = create ();
      yp = create ();
      ym = create ();
      xy2d = create ();
      neg = create ();
    }

(* o <- (EF, GH, FG, EH): the last step every formula below shares.
   Reads only the scratch, so [o] may alias the inputs. *)
let finish s o =
  Fe25519.mul o.x s.e s.f;
  Fe25519.mul o.y s.g s.h;
  Fe25519.mul o.z s.f s.g;
  Fe25519.mul o.t s.e s.h

(* p <- p + q. *)
let add_with s p q =
  let open Fe25519 in
  sub s.a p.y p.x;
  sub s.e q.y q.x;
  mul s.a s.a s.e (* A = (Y1-X1)(Y2-X2) *);
  add s.b p.y p.x;
  add s.e q.y q.x;
  mul s.b s.b s.e (* B = (Y1+X1)(Y2+X2) *);
  mul s.c p.t q.t;
  mul s.c s.c d2 (* C = 2d T1 T2 *);
  mul s.g p.z q.z;
  add s.g s.g s.g (* D = 2 Z1 Z2 *);
  sub s.e s.b s.a (* E = B - A *);
  add s.h s.b s.a (* H = B + A *);
  sub s.f s.g s.c (* F = D - C *);
  add s.g s.g s.c (* G = D + C *);
  finish s p

(* o <- p + q for the affine comb entry q = (s.yp, s.ym, s.xy2d). *)
let madd s o p =
  let open Fe25519 in
  add s.a p.y p.x;
  mul s.a s.a s.yp (* A = (Y+X)(y+x) *);
  sub s.b p.y p.x;
  mul s.b s.b s.ym (* B = (Y-X)(y-x) *);
  mul s.c s.xy2d p.t (* C = 2dxy T *);
  sub s.e s.a s.b (* E = A - B *);
  add s.h s.a s.b (* H = A + B *);
  add s.g p.z p.z (* D = 2Z *);
  sub s.f s.g s.c (* F = D - C *);
  add s.g s.g s.c (* G = D + C *);
  finish s o

(* o <- 2p. *)
let double s o p =
  let open Fe25519 in
  square s.a p.x (* A = X^2 *);
  square s.b p.y (* B = Y^2 *);
  square s.c p.z;
  add s.c s.c s.c (* C = 2Z^2 *);
  add s.h s.a s.b;
  carry s.h (* H = A + B, carried: E subtracts it *);
  add s.e p.x p.y;
  square s.e s.e;
  sub s.e s.e s.h (* E = (X+Y)^2 - H *);
  sub s.g s.b s.a;
  carry s.g (* G = B - A, carried: F subtracts it *);
  sub s.f s.c s.g (* F = C - G *);
  finish s o

(* P's comb table: entry j of row i, (j+1) 256^i P as carried
   (y+x, y-x, 2dxy), is 15 ints at [entry_off i j].  Built with one
   batched inversion of the 256 Z coordinates (Fe25519.batch_invert). *)
type table = int array

let entry_off row j = 15 * ((8 * row) + j)

let table_of_point p : table =
  let open Fe25519 in
  let n = 32 * 8 in
  let s = scratch () in
  let pts = Array.make n (identity ()) in
  let row_base = copy_point p in
  for row = 0 to 31 do
    pts.(8 * row) <- copy_point row_base;
    for j = 1 to 7 do
      let p = copy_point pts.((8 * row) + j - 1) in
      add_with s p row_base;
      pts.((8 * row) + j) <- p
    done;
    for _ = 1 to 8 do
      double s row_base row_base
    done
  done;
  let zi = Array.map (fun p -> copy p.z) pts in
  batch_invert zi;
  let tbl = Array.make (15 * n) 0 in
  let x = create () and y = create () and v = create () in
  let store off =
    carry v;
    Array.blit v 0 tbl off 5
  in
  for i = 0 to n - 1 do
    mul x pts.(i).x zi.(i);
    mul y pts.(i).y zi.(i);
    let off = 15 * i in
    add v y x;
    store off;
    sub v y x;
    store (off + 5);
    mul v x y;
    mul v v d2;
    store (off + 10)
  done;
  tbl

let base_table = table_of_point (base_point ())

(* All ones iff a = b, for 0 <= a, b < 16: (0 - 1) lsr 62 = 1 and
   (1..15 - 1) lsr 62 = 0. *)
let[@inline] eq_mask a b = -(((a lxor b) - 1) lsr 62)

(* Limb [off] of the one row entry whose mask is all ones (0 if none
   is), reading all eight: entry j's limb sits 15 j ints further on. *)
let[@inline] pick table off m1 m2 m3 m4 m5 m6 m7 m8 =
  (m1 land Array.unsafe_get table off)
  lor (m2 land Array.unsafe_get table (off + 15))
  lor (m3 land Array.unsafe_get table (off + 30))
  lor (m4 land Array.unsafe_get table (off + 45))
  lor (m5 land Array.unsafe_get table (off + 60))
  lor (m6 land Array.unsafe_get table (off + 75))
  lor (m7 land Array.unsafe_get table (off + 90))
  lor (m8 land Array.unsafe_get table (off + 105))

(* Constant time: s.(yp, ym, xy2d) <- b 256^row P for a signed digit
   -8 <= b <= 8 (the identity (1, 1, 0) for b = 0).  All eight entries
   of the row are read and the match is picked by mask; the masks are
   computed once, and each limb is gathered in a local and stored once.
   The row spans ints [off, off + 120): two checked reads, of its first
   and its last, bound the unchecked ones. *)
let select table s row b =
  let neg = b lsr 62 (* 1 iff b < 0 *) in
  let babs = b - ((-neg land b) lsl 1) in
  let m0 = eq_mask babs 0 and m1 = eq_mask babs 1 and m2 = eq_mask babs 2 in
  let m3 = eq_mask babs 3 and m4 = eq_mask babs 4 and m5 = eq_mask babs 5 in
  let m6 = eq_mask babs 6 and m7 = eq_mask babs 7 and m8 = eq_mask babs 8 in
  let off = entry_off row 0 in
  ignore (Sys.opaque_identity (table.(off) + table.(off + 119)));
  for k = 0 to 4 do
    let id = m0 land Bool.to_int (k = 0) (* limb k of the identity's 1 *) in
    let o = off + k in
    s.yp.(k) <- pick table o m1 m2 m3 m4 m5 m6 m7 m8 lor id;
    s.ym.(k) <- pick table (o + 5) m1 m2 m3 m4 m5 m6 m7 m8 lor id;
    s.xy2d.(k) <- pick table (o + 10) m1 m2 m3 m4 m5 m6 m7 m8
  done;
  (* -(x, y) = (-x, y): swap y+x and y-x, negate 2dxy. *)
  Fe25519.cswap s.yp s.ym neg;
  Fe25519.sub s.neg fe_zero s.xy2d;
  Fe25519.cswap s.xy2d s.neg neg

(* p <- p + sum_i e_(2i + parity) 256^i P: a function, not a closure
   in [comb], so a comb allocates only its scratch. *)
let add_digits table s e p parity =
  for i = 0 to 31 do
    select table s i e.((2 * i) + parity);
    madd s p p
  done

let comb table k =
  (* Bit 255 is clear for every caller (clamped scalars, scalars reduced
     mod L), so this check branches on no bit a valid scalar can vary. *)
  if Bytes.length k <> 32 || Bytes_util.get_u8 k 31 > 127 then
    invalid_arg "Edwards25519.comb: scalar must be < 2^255";
  let e = Array.make 64 0 in
  for i = 0 to 31 do
    let v = Bytes_util.get_u8 k i in
    e.(2 * i) <- v land 15;
    e.((2 * i) + 1) <- v lsr 4
  done;
  (* Signed recoding: carry (e_i + 8) / 16 into the next digit, leaving
     -8 <= e_i <= 7; the top digit ends at most 7 + 1 = 8. *)
  for i = 0 to 62 do
    let c = (e.(i) + 8) asr 4 in
    e.(i) <- e.(i) - (c lsl 4);
    e.(i + 1) <- e.(i + 1) + c
  done;
  let s = scratch () and p = identity () in
  add_digits table s e p 1;
  for _ = 1 to 4 do
    double s p p
  done;
  add_digits table s e p 0;
  p

let scalarmult_base k = comb base_table k

(* Variable time: for public scalars only (verification). *)
let scalarmult_vartime q k =
  let s = scratch () and p = identity () in
  for i = (8 * Bytes.length k) - 1 downto 0 do
    double s p p;
    if (Bytes_util.get_u8 k (i lsr 3) lsr (i land 7)) land 1 = 1 then
      add_with s p q
  done;
  p

let add p q = add_with (scratch ()) p q

(* u = (1 + y) / (1 - y) = (Z + Y) / (Z - Y). *)
let montgomery_fraction p ~num ~den =
  Fe25519.add num p.z p.y;
  Fe25519.sub den p.z p.y

let montgomery_u p =
  let open Fe25519 in
  let n = create () and m = create () in
  montgomery_fraction p ~num:n ~den:m;
  invert m m;
  mul n n m;
  pack n

(* Compress: 32-byte y with the sign of x in the top bit. *)
let encode p =
  let open Fe25519 in
  let zi = create () and x = create () and y = create () in
  invert zi p.z;
  mul x p.x zi;
  mul y p.y zi;
  let r = pack y in
  Bytes_util.set_u8 r 31 (Bytes_util.get_u8 r 31 lor (parity x lsl 7));
  r

(* A root of the curve equation solved for x, x^2 = num/den with
   num = y^2 - 1 and den = d y^2 + 1: x = num den^3 (num den^7)^((p-5)/8),
   times sqrt(-1) when that squares to -num/den (RFC 8032 §5.1.3,
   TweetNaCl's unpackneg).  Either root may come back; [None] when
   num/den is not a square, i.e. no point has this y. *)
let recover_x y =
  let open Fe25519 in
  let x = create ()
  and num = create ()
  and den = create ()
  and t = create ()
  and chk = create ()
  and den2 = create ()
  and den4 = create ()
  and den6 = create () in
  square num y;
  mul den num d;
  sub num num (one ());
  add den (one ()) den;
  square den2 den;
  square den4 den2;
  mul den6 den4 den2;
  mul t den6 num;
  mul t t den;
  pow2523 t t;
  mul t t num;
  mul t t den;
  mul t t den;
  mul x t den;
  square chk x;
  mul chk chk den;
  if not (equal chk num) then mul x x sqrt_m1;
  square chk x;
  mul chk chk den;
  if equal chk num then Some x else None

let of_affine x y =
  let t = Fe25519.create () in
  Fe25519.mul t x y;
  { x; y; z = Fe25519.one (); t }

(* RFC 8032 §5.1.3 decoding, returning -P. *)
let decode_neg (enc : bytes) : point option =
  let open Fe25519 in
  let y = unpack enc in
  let sign = Bytes_util.get_u8 enc 31 lsr 7 in
  let masked = Bytes.copy enc in
  Bytes_util.set_u8 masked 31 (Bytes_util.get_u8 enc 31 land 0x7f);
  if not (Bytes.equal (pack y) masked) then None (* y >= p *)
  else
    match recover_x y with
    | None -> None (* not on the curve *)
    | Some x when sign = 1 && equal x fe_zero -> None (* x = 0 has no -0 *)
    | Some x ->
        if parity x = sign then begin
          sub x fe_zero x;
          carry x
        end;
        Some (of_affine x y)

(* The inverse of [montgomery_u] up to sign: y = (u - 1) / (u + 1), and
   x a root of the curve equation.  Either root serves, because
   u([k]P) = u([k](-P)).  [None] on the quadratic twist: there
   (y^2 - 1) / (d y^2 + 1) is a non-square, and u = -1, which has no y,
   lies on it too. *)
let of_montgomery_u (enc : bytes) : point option =
  let open Fe25519 in
  let u = unpack enc in
  let y = create () and den = create () in
  add den u fe_one;
  if equal den fe_zero then None
  else begin
    invert den den;
    sub y u fe_one;
    mul y y den;
    Option.map (fun x -> of_affine x y) (recover_x y)
  end

let has_small_order p =
  let s = scratch () and q = copy_point p in
  for _ = 1 to 3 do
    double s q q
  done;
  (* [8]P is the identity (0 : Z : Z : 0). *)
  Fe25519.equal q.x fe_zero && Fe25519.equal q.y q.z
