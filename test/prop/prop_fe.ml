(* Differential field suites: every Fe25519 (5×51-bit limbs) operation is
   checked against the retained seed implementation Fe25519_ref
   (TweetNaCl 16×16-bit limbs) over ≥1000 seeded cases per op.  Both
   sides unpack the same 32-byte encoding, apply the same op, and must
   pack to identical canonical bytes. *)

open Vuvuzela_crypto

let hex = Bytes_util.to_hex

(* Apply [op_new]/[op_ref] to the same encodings and compare packings. *)
let differential2 ~what op_new op_ref (ba, bb) =
  let o = Fe25519.create () in
  op_new o (Fe25519.unpack ba) (Fe25519.unpack bb);
  let o' = Fe25519_ref.create () in
  op_ref o' (Fe25519_ref.unpack ba) (Fe25519_ref.unpack bb);
  Prop.check_hex
    ~what:(Printf.sprintf "%s(%s, %s)" what (hex ba) (hex bb))
    (hex (Fe25519_ref.pack o'))
    (hex (Fe25519.pack o))

let differential1 ~what op_new op_ref ba =
  let o = Fe25519.create () in
  op_new o (Fe25519.unpack ba);
  let o' = Fe25519_ref.create () in
  op_ref o' (Fe25519_ref.unpack ba);
  Prop.check_hex
    ~what:(Printf.sprintf "%s(%s)" what (hex ba))
    (hex (Fe25519_ref.pack o'))
    (hex (Fe25519.pack o))

let gen2 = Prop.(gen_pair gen_fe_bytes gen_fe_bytes)

(* Operands at the input bound the multiplication kernels are sized for
   (fe25519.mli's carry contract): limbs up to 2^53.1, where an
   accumulator comes closest to 2^62, so where a 63-bit int and a 64-bit
   word could first disagree and a retagged limb could drop a bit. *)
let sub_bound = int_of_float (2. ** 53.1) - 2 (* just below 2^53.1 *)
let carried_bound = (1 lsl 51) + (1 lsl 36)
let g_bound = 3 * carried_bound (* G = D + C, D = 2Z *)

let limbs_hex (a : Fe25519.t) =
  String.concat "," (Array.to_list (Array.map (Printf.sprintf "%x") a))

(* One operand: every limb just below 2^53.1, every limb at the stacked
   G bound, a lazy add or sub of carried values (a sub's minuend may be
   a lazy add, its subtrahend is carried), G = (Z + Z) + C itself, or a
   carried value, so that pairs mix lazy and carried operands. *)
let gen_operand rng =
  let fe () = Fe25519.unpack (Prop.gen_fe_bytes rng) in
  let lazy_op op a b =
    let o = Fe25519.create () in
    op o a b;
    o
  in
  match Drbg.uniform ~rng 7 with
  | 0 -> Array.init 5 (fun _ -> sub_bound - Drbg.uniform ~rng (1 lsl 30))
  | 1 -> Array.make 5 g_bound
  | 2 -> lazy_op Fe25519.add (fe ()) (fe ())
  | 3 -> lazy_op Fe25519.sub (fe ()) (fe ())
  | 4 -> lazy_op Fe25519.sub (lazy_op Fe25519.add (fe ()) (fe ())) (fe ())
  | 5 ->
      let z = fe () in
      lazy_op Fe25519.add (lazy_op Fe25519.add z z) (fe ())
  | _ -> fe ()

(* [mul], [square] and [mul_small] of raw operands against the same
   operation on [carry]ed copies and against Fe25519_ref on the packed
   values; every output limb must be carried. *)
let check_at_bound (x, y) =
  let carried v =
    let c = Fe25519.copy v in
    Fe25519.carry c;
    c
  in
  let to_ref v = Fe25519_ref.unpack (Fe25519.pack v) in
  let check op kernel oracle =
    let what = Printf.sprintf "%s(%s; %s)" op (limbs_hex x) (limbs_hex y) in
    let o = Fe25519.create () and oc = Fe25519.create () in
    kernel o x y;
    kernel oc (carried x) (carried y);
    Array.iter
      (fun l ->
        Prop.require
          (0 <= l && l < carried_bound)
          "%s: output limb %x is not carried" what l)
      o;
    Prop.check_hex ~what:(what ^ " vs carried operands")
      (hex (Fe25519.pack oc))
      (hex (Fe25519.pack o));
    Prop.check_hex ~what:(what ^ " vs oracle") (hex (oracle ()))
      (hex (Fe25519.pack o))
  in
  let oracle2 op a b () =
    let o = Fe25519_ref.create () in
    op o (to_ref a) (to_ref b);
    Fe25519_ref.pack o
  in
  check "mul" Fe25519.mul (oracle2 Fe25519_ref.mul x y);
  check "square" (fun o a _ -> Fe25519.square o a)
    (oracle2 (fun o a _ -> Fe25519_ref.square o a) x x);
  List.iter
    (fun c ->
      check
        (Printf.sprintf "mul_small %d" c)
        (fun o _ b -> Fe25519.mul_small o b c)
        (oracle2 Fe25519_ref.mul y (Fe25519.of_limbs [| c; 0; 0; 0; 0 |])))
    [ 121665; (1 lsl 17) - 1 ]

(* An operand for the limb-exact check: [gen_operand]'s mix of lazy,
   carried and at-the-bound values, or limbs drawn uniformly below the
   input bound. *)
let gen_limb_operand rng =
  if Drbg.uniform ~rng 4 = 0 then
    Array.init 5 (fun _ -> Drbg.uniform ~rng sub_bound)
  else gen_operand rng

(* [mul] and [square] against the schoolbook kernels they replaced
   (Fe25519_schoolbook): the Karatsuba schedule sums the same ten
   accumulators, so it must write the same five limbs, not just the same
   field value, with its output aliasing either operand or both. *)
let check_limbs (x, y) =
  let what op = Printf.sprintf "%s(%s; %s)" op (limbs_hex x) (limbs_hex y) in
  let same op expect got =
    Prop.require (expect = got) "%s: limbs %s, schoolbook %s" (what op)
      (limbs_hex got) (limbs_hex expect)
  in
  let fresh kernel =
    let o = Fe25519.create () in
    kernel o;
    o
  in
  let in_place v kernel =
    let o = Fe25519.copy v in
    kernel o;
    o
  in
  let xy = fresh (fun o -> Fe25519_schoolbook.mul o x y) in
  let xx = fresh (fun o -> Fe25519_schoolbook.mul o x x) in
  let sq = fresh (fun o -> Fe25519_schoolbook.square o x) in
  same "mul" xy (fresh (fun o -> Fe25519.mul o x y));
  same "square" sq (fresh (fun o -> Fe25519.square o x));
  same "mul o=a" xy (in_place x (fun o -> Fe25519.mul o o y));
  same "mul o=b" xy (in_place y (fun o -> Fe25519.mul o x o));
  same "mul o=a=b" xx (in_place x (fun o -> Fe25519.mul o o o));
  same "square o=a" sq (in_place x (fun o -> Fe25519.square o o))

(* A batch of 1-40 elements for [batch_invert]: random values, lazy
   operands up to the input bound, and encodings of zero (0, and p and
   2p limb-wise), so that zeros sit anywhere, alone or in runs. *)
let gen_batch rng =
  let m51 = (1 lsl 51) - 1 and m52 = (1 lsl 52) - 2 in
  let p_limbs = [| m51 - 18; m51; m51; m51; m51 |]
  and two_p = [| m52 - 36; m52; m52; m52; m52 |] in
  Array.init
    (1 + Drbg.uniform ~rng 40)
    (fun _ ->
      match Drbg.uniform ~rng 8 with
      | 0 -> Fe25519.create ()
      | 1 -> Array.copy p_limbs
      | 2 -> Array.copy two_p
      | 3 | 4 -> gen_operand rng
      | _ -> Fe25519.unpack (Prop.gen_fe_bytes rng))

(* [batch_invert] against [invert] on each element alone and against
   Fe25519_ref; every output is carried. *)
let check_batch_invert xs =
  let batch = Array.map Fe25519.copy xs in
  Fe25519.batch_invert batch;
  Array.iteri
    (fun i x ->
      let what =
        Printf.sprintf "batch_invert element %d of %d (%s)" i
          (Array.length xs) (limbs_hex x)
      in
      let alone = Fe25519.create () in
      Fe25519.invert alone x;
      let o' = Fe25519_ref.create () in
      Fe25519_ref.invert o' (Fe25519_ref.unpack (Fe25519.pack x));
      Array.iter
        (fun l ->
          Prop.require
            (0 <= l && l < carried_bound)
            "%s: output limb %x is not carried" what l)
        batch.(i);
      Prop.check_hex ~what:(what ^ " vs invert")
        (hex (Fe25519.pack alone))
        (hex (Fe25519.pack batch.(i)));
      Prop.check_hex ~what:(what ^ " vs oracle")
        (hex (Fe25519_ref.pack o'))
        (hex (Fe25519.pack batch.(i))))
    xs

let run () =
  Prop.suite "fe25519 (51-bit limbs) vs fe25519_ref (seed, 16-bit limbs)";
  Prop.check ~name:"fe add" gen2
    (differential2 ~what:"add" Fe25519.add Fe25519_ref.add);
  Prop.check ~name:"fe sub" gen2
    (differential2 ~what:"sub" Fe25519.sub Fe25519_ref.sub);
  Prop.check ~name:"fe mul" gen2
    (differential2 ~what:"mul" Fe25519.mul Fe25519_ref.mul);
  Prop.check ~name:"fe square" Prop.gen_fe_bytes
    (differential1 ~what:"square" Fe25519.square Fe25519_ref.square);
  Prop.check ~name:"fe mul/square/mul_small at the input bound"
    (Prop.gen_pair gen_operand gen_operand)
    check_at_bound;
  Prop.vector ~name:"fe kernels at the limb maxima" (fun () ->
      let carried_max = Fe25519.unpack (Bytes.make 32 '\xff') in
      List.iter
        (fun (l, r) -> check_at_bound (Array.make 5 l, r))
        [ (sub_bound, Array.make 5 sub_bound);
          (g_bound, Array.make 5 g_bound);
          (3 * ((1 lsl 51) + (1 lsl 15)), Array.make 5 sub_bound);
          (sub_bound, carried_max);
          (g_bound, carried_max) ];
      check_at_bound (carried_max, Array.make 5 sub_bound));
  Prop.check ~name:"fe mul/square = schoolbook, limb for limb"
    (Prop.gen_pair gen_limb_operand gen_limb_operand)
    check_limbs;
  Prop.vector ~name:"fe mul/square = schoolbook at the limb maxima"
    (fun () ->
      let edges =
        [ 0; 1; (1 lsl 51) - 1; carried_bound - 1; g_bound; sub_bound ]
      in
      let alternating l r = [| l; r; l; r; l |] in
      List.iter
        (fun l ->
          List.iter
            (fun r ->
              check_limbs (Array.make 5 l, Array.make 5 r);
              check_limbs (alternating l r, alternating r l))
            edges)
        edges);
  Prop.check ~name:"fe invert" Prop.gen_fe_bytes
    (differential1 ~what:"invert" Fe25519.invert Fe25519_ref.invert);
  (* The addition chain on fixed edges: 0, 1, p - 1, the non-canonical
     p (= 0) and p + 1 (= 1), with 0 and p mapping to 0; and
     lazily-carried add/sub outputs (limbs above 2^51), which the chain's
     first squaring must absorb. *)
  Prop.vector ~name:"fe invert edge inputs" (fun () ->
      let near_p low =
        let b = Bytes.make 32 '\xff' in
        Bytes_util.set_u8 b 0 low;
        Bytes_util.set_u8 b 31 0x7f;
        b
      in
      let small v =
        let b = Bytes.make 32 '\000' in
        Bytes_util.set_u8 b 0 v;
        b
      in
      let p_minus_1 = near_p 0xec and p = near_p 0xed in
      List.iter
        (differential1 ~what:"invert" Fe25519.invert Fe25519_ref.invert)
        [ small 0; small 1; p_minus_1; p; near_p 0xee ];
      List.iter
        (fun b ->
          let o = Fe25519.create () in
          Fe25519.invert o (Fe25519.unpack b);
          Prop.check_hex ~what:(Printf.sprintf "invert(%s)" (hex b))
            (hex (small 0)) (hex (Fe25519.pack o)))
        [ small 0; p ];
      let top = Bytes.make 32 '\xff' in
      List.iter
        (fun (ba, bb) ->
          List.iter
            (fun (what, op_new, op_ref) ->
              let o = Fe25519.create () and lazy_new = Fe25519.create () in
              op_new lazy_new (Fe25519.unpack ba) (Fe25519.unpack bb);
              Fe25519.invert o lazy_new;
              let o' = Fe25519_ref.create ()
              and lazy_ref = Fe25519_ref.create () in
              op_ref lazy_ref (Fe25519_ref.unpack ba) (Fe25519_ref.unpack bb);
              Fe25519_ref.invert o' lazy_ref;
              Prop.check_hex
                ~what:
                  (Printf.sprintf "invert(%s(%s, %s))" what (hex ba) (hex bb))
                (hex (Fe25519_ref.pack o'))
                (hex (Fe25519.pack o)))
            [ ("add", Fe25519.add, Fe25519_ref.add);
              ("sub", Fe25519.sub, Fe25519_ref.sub) ])
        [ (top, top); (top, small 1); (small 0, p_minus_1); (p_minus_1, top) ]);
  Prop.check ~name:"fe batch_invert = invert and oracle (1-40, zeros)"
    ~count:200 gen_batch check_batch_invert;
  Prop.check ~name:"fe pow2523" Prop.gen_fe_bytes
    (differential1 ~what:"pow2523" Fe25519.pow2523 Fe25519_ref.pow2523);
  (* mul by small constants (the ladder's 121665 among them) must equal
     the general mul. *)
  Prop.check ~name:"fe mul_small = mul (121665, 9)" Prop.gen_fe_bytes
    (fun ba ->
      List.iter
        (fun c ->
          let k = Bytes.make 32 '\000' in
          Bytes_util.set_u8 k 0 (c land 0xff);
          Bytes_util.set_u8 k 1 ((c lsr 8) land 0xff);
          Bytes_util.set_u8 k 2 ((c lsr 16) land 0xff);
          let o = Fe25519.create () and m = Fe25519.create () in
          Fe25519.mul_small o (Fe25519.unpack ba) c;
          Fe25519.mul m (Fe25519.unpack ba) (Fe25519.unpack k);
          Prop.check_hex
            ~what:(Printf.sprintf "mul_small(%s, %d)" (hex ba) c)
            (hex (Fe25519.pack m))
            (hex (Fe25519.pack o)))
        [ 121665; 9; 1; 0 ]);
  (* to/from bytes: unpack·pack agrees with the oracle and is canonical
     (packing is idempotent even for non-canonical encodings >= p). *)
  Prop.check ~name:"fe pack/unpack canonicality" Prop.gen_fe_bytes (fun ba ->
      let p_new = Fe25519.pack (Fe25519.unpack ba) in
      let p_ref = Fe25519_ref.pack (Fe25519_ref.unpack ba) in
      Prop.check_hex
        ~what:(Printf.sprintf "pack(unpack %s)" (hex ba))
        (hex p_ref) (hex p_new);
      Prop.check_hex
        ~what:(Printf.sprintf "pack idempotent on %s" (hex ba))
        (hex p_new)
        (hex (Fe25519.pack (Fe25519.unpack p_new))));
  (* The lazy-carry path: add/sub results are packed without an explicit
     carry, exercising pack's reduction of unreduced limbs; parity and
     equal must agree with the oracle on those values too. *)
  Prop.check ~name:"fe parity/equal on lazy values" gen2 (fun (ba, bb) ->
      let s = Fe25519.create () in
      Fe25519.add s (Fe25519.unpack ba) (Fe25519.unpack bb);
      let s' = Fe25519_ref.create () in
      Fe25519_ref.add s' (Fe25519_ref.unpack ba) (Fe25519_ref.unpack bb);
      Prop.require
        (Fe25519.parity s = Fe25519_ref.parity s')
        "parity(add %s %s): new %d, ref %d" (hex ba) (hex bb)
        (Fe25519.parity s) (Fe25519_ref.parity s');
      Prop.require
        (Fe25519.equal s (Fe25519.unpack (Fe25519_ref.pack s')))
        "equal disagrees with oracle pack on add(%s, %s)" (hex ba) (hex bb));
  (* Aliased outputs (o == a, o == b, and both) are allowed everywhere;
     the ladder relies on this. *)
  Prop.check ~name:"fe aliasing (o = a, o = b, o = a = b)" gen2
    (fun (ba, bb) ->
      let expect op =
        let o = Fe25519.create () in
        op o (Fe25519.unpack ba) (Fe25519.unpack bb);
        hex (Fe25519.pack o)
      in
      let m = expect Fe25519.mul in
      let x = Fe25519.unpack ba in
      Fe25519.mul x x (Fe25519.unpack bb);
      Prop.check_hex ~what:"mul o=a" m (hex (Fe25519.pack x));
      let y = Fe25519.unpack bb in
      Fe25519.mul y (Fe25519.unpack ba) y;
      Prop.check_hex ~what:"mul o=b" m (hex (Fe25519.pack y));
      let z = Fe25519.unpack ba in
      Fe25519.square z z;
      let s = Fe25519.create () in
      Fe25519.square s (Fe25519.unpack ba);
      Prop.check_hex ~what:"square o=a" (hex (Fe25519.pack s))
        (hex (Fe25519.pack z)))
