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
   -8 <= e_i <= 8 with k = sum e_i 16^i, so kP = sum_i e_i 16^i P.  Row
   i of P's table holds j * 16^i * P for j = 1..8 in affine
   (y+x, y-x, 2dxy) form, so each digit costs one mixed addition of a
   row entry (negated for a negative digit), and the whole
   multiplication 64 mixed additions and no doubling: 448 field
   multiplications, plus the inversion to leave projective coordinates
   (~265, or a share of one in a batch), against the ladder's ~2,560.
   The loop itself is Fe25519.comb, beside the field kernels it inlines
   (DESIGN.md §2b); this module builds the tables and wraps the loop's
   output in a point.  Building a table costs about six ladders
   (BENCH_crypto.json's keyed_table_ms, 0.52 ms on a 2-vCPU Xeon VM),
   so it pays for a point
   that is multiplied many times: the base point B, and (Curve25519) a
   server's long-lived public key.

   Constant time: the recoding is arithmetic only, every row is scanned
   in full and the entry is picked with masks (the row index is public),
   and negation is a masked swap (Fe25519.comb).  B's table is built
   eagerly at module initialisation, never lazily: OCaml 5 raises
   CamlinternalLazy.Undefined when two domains force one lazy value,
   and servers wrap noise onions from pool domains.  Every table is
   read-only once built.

   Carry discipline: the contract in fe25519.mli.  [sub]'s second
   argument is always carried (a mul/square output, a table entry, or an
   explicitly [carry]ed value), and every multiplication's operands stay
   inside Fe25519's input bound (even words < 2^28, odd words
   < 2^27 + 2^13).  Most are at most one lazy add/sub away from carried
   values; the exceptions are G = D + C and F = D - C in [add] (and
   Fe25519.comb's mixed addition) and F = C - G in [double], with
   D = 2Z and C = 2Z^2 lazy: G's even words stay below 3 * 2^26, and
   F's, a sub whose minuend is a lazy add, below 2^28. *)

type point = { x : Fe25519.t; y : Fe25519.t; z : Fe25519.t; t : Fe25519.t }

(* Curve constants as canonical little-endian encodings, independent of
   Fe25519's representation: d = -121665/121666, 2d, I = sqrt(-1),
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

(* Temporaries of the point formulas, allocated once per scalar
   multiplication or table, so a loop of formulas allocates nothing. *)
type scratch = {
  a : Fe25519.t;
  b : Fe25519.t;
  c : Fe25519.t;
  e : Fe25519.t;
  f : Fe25519.t;
  g : Fe25519.t;
  h : Fe25519.t;
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

(* P's comb table, in the layout Fe25519.comb reads: entry j of row i,
   (j+1) 16^i P as carried (y+x, y-x, 2dxy), is 15 ints at
   15 (8 i + j), each coordinate as five radix-2^51 limbs
   (Fe25519.to_limbs).  Each row takes seven additions of its base to a
   running point, and the next row's base is 16^(i+1) P = 2 (8 16^i P),
   one doubling of the row's last entry.  Until one batched inversion
   of the 512 Z coordinates (Fe25519.batch_invert) makes them affine,
   each entry's X and Y wait in its own slot of the table. *)
type table = int array

let table_of_point p : table =
  let open Fe25519 in
  let n = 64 * 8 in
  let s = scratch () and tbl = Array.make (15 * n) 0 in
  let zi = create_array n in
  let row_base = copy_point p and q = identity () in
  for row = 0 to 63 do
    for j = 0 to 7 do
      let i = (8 * row) + j in
      if j = 0 then begin
        blit ~src:row_base.x ~dst:q.x;
        blit ~src:row_base.y ~dst:q.y;
        blit ~src:row_base.z ~dst:q.z;
        blit ~src:row_base.t ~dst:q.t
      end
      else add_with s q row_base;
      (* X and Y are mul outputs (or P's own, carried), so carried. *)
      to_limbs tbl (15 * i) q.x;
      to_limbs tbl ((15 * i) + 5) q.y;
      blit ~src:q.z ~dst:zi.(i)
    done;
    double s row_base q
  done;
  batch_invert zi;
  let x = create () and y = create () and v = create () in
  let store off =
    carry v;
    to_limbs tbl off v
  in
  for i = 0 to n - 1 do
    let off = 15 * i in
    of_limbs x tbl off;
    of_limbs y tbl (off + 5);
    mul x x zi.(i);
    mul y y zi.(i);
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

let comb table k =
  let p = Fe25519.{ x = create (); y = create (); z = create (); t = create () } in
  Fe25519.comb table k ~x:p.x ~y:p.y ~z:p.z ~t:p.t;
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
