(* Differential field suites: every Fe25519 (ten radix-2^25.5 words)
   operation is checked against the retained seed implementation
   Fe25519_ref (TweetNaCl 16×16-bit limbs) over ≥1000 seeded cases per
   op.  Both sides unpack the same 32-byte encoding, apply the same op,
   and must pack to identical canonical bytes.  [mul] and [square] are
   also checked word for word against ref10's schoolbook schedule
   (Fe25519_schoolbook). *)

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

(* fe25519.mli's bounds, word by word: the input bound the
   multiplication kernels are sized for (even words below 2^28, odd
   below 2^27 + 2^13), where an accumulator comes closest to 2^63; the
   carried range; and the Edwards formulas' stacked lazy values,
   G = D + C and F = D - C with D = 2Z. *)
let input_bound i = if i land 1 = 0 then 1 lsl 28 else (1 lsl 27) + (1 lsl 13)

let carried_bound i =
  if i = 1 then (1 lsl 25) + (1 lsl 12)
  else if i land 1 = 0 then 1 lsl 26
  else 1 lsl 25

let two_p i =
  if i = 0 then (1 lsl 27) - 38
  else if i land 1 = 0 then (1 lsl 27) - 2
  else (1 lsl 26) - 2

let carried_max = Array.init 10 (fun i -> carried_bound i - 1)
let g_max = Array.init 10 (fun i -> 3 * (carried_bound i - 1))
let f_max = Array.init 10 (fun i -> (2 * (carried_bound i - 1)) + two_p i)
let bound_max = Array.init 10 (fun i -> input_bound i - 1)
let words_hex (a : Fe25519.t) =
  Fe25519.words a |> Array.map (Printf.sprintf "%x") |> Array.to_list
  |> String.concat ","

let require_carried what (o : Fe25519.t) =
  Array.iteri
    (fun i w ->
      Prop.require
        (0 <= w && w < carried_bound i)
        "%s: output word %d = %x is not carried" what i w)
    (Fe25519.words o)

(* One operand: every word just below the input bound, the stacked G
   and F bounds, a lazy add or sub of carried values (a sub's minuend
   may be a lazy add, its subtrahend is carried), G = (Z + Z) + C and
   F = (Z + Z) - C themselves, or a carried value, so that pairs mix
   lazy and carried operands. *)
let gen_operand rng =
  let fe () = Fe25519.unpack (Prop.gen_fe_bytes rng) in
  let lazy_op op a b =
    let o = Fe25519.create () in
    op o a b;
    o
  in
  match Drbg.uniform ~rng 9 with
  | 0 ->
      Fe25519.of_words
        (Array.init 10 (fun i ->
             input_bound i - 1 - Drbg.uniform ~rng (1 lsl 12)))
  | 1 -> Fe25519.of_words g_max
  | 2 -> Fe25519.of_words f_max
  | 3 -> lazy_op Fe25519.add (fe ()) (fe ())
  | 4 -> lazy_op Fe25519.sub (fe ()) (fe ())
  | 5 -> lazy_op Fe25519.sub (lazy_op Fe25519.add (fe ()) (fe ())) (fe ())
  | 6 ->
      let z = fe () in
      lazy_op Fe25519.add (lazy_op Fe25519.add z z) (fe ())
  | 7 ->
      let z = fe () in
      lazy_op Fe25519.sub (lazy_op Fe25519.add z z) (fe ())
  | _ -> fe ()

(* [mul], [square] and [mul_small] of raw operands against the same
   operation on [carry]ed copies and against Fe25519_ref on the packed
   values; every output word must be carried. *)
let check_at_bound (x, y) =
  let carried v =
    let c = Fe25519.copy v in
    Fe25519.carry c;
    c
  in
  let to_ref v = Fe25519_ref.unpack (Fe25519.pack v) in
  let check op kernel oracle =
    let what = Printf.sprintf "%s(%s; %s)" op (words_hex x) (words_hex y) in
    let o = Fe25519.create () and oc = Fe25519.create () in
    kernel o x y;
    kernel oc (carried x) (carried y);
    require_carried what o;
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
      let small = Array.make 10 0 in
      small.(0) <- c land 0x3ffffff;
      small.(1) <- c lsr 26;
      check
        (Printf.sprintf "mul_small %d" c)
        (fun o _ b -> Fe25519.mul_small o b c)
        (oracle2 Fe25519_ref.mul y (Fe25519.of_words small)))
    [ 121665; (1 lsl 17) - 1 ]

(* An operand for the word-exact check: [gen_operand]'s mix of lazy,
   carried and at-the-bound values, or words drawn uniformly below the
   input bound. *)
let gen_word_operand rng =
  if Drbg.uniform ~rng 4 = 0 then
    Fe25519.of_words
      (Array.init 10 (fun i -> Drbg.uniform ~rng (input_bound i)))
  else gen_operand rng

(* [mul] and [square] against ref10's schoolbook (Fe25519_schoolbook):
   the Karatsuba schedule sums the same ten accumulators and runs the
   same carry chain, so it must write the same ten words, not just the
   same field value, with its output aliasing either operand or both. *)
let check_words (x, y) =
  let what op = Printf.sprintf "%s(%s; %s)" op (words_hex x) (words_hex y) in
  let same op expect got =
    Prop.require
      (expect = Fe25519.words got)
      "%s: words %s, schoolbook %s" (what op) (words_hex got)
      (words_hex (Fe25519.of_words expect))
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
  let xw = Fe25519.words x and yw = Fe25519.words y in
  let xy = Fe25519_schoolbook.mul xw yw in
  let xx = Fe25519_schoolbook.mul xw xw in
  let sq = Fe25519_schoolbook.square xw in
  same "mul" xy (fresh (fun o -> Fe25519.mul o x y));
  same "square" sq (fresh (fun o -> Fe25519.square o x));
  same "mul o=a" xy (in_place x (fun o -> Fe25519.mul o o y));
  same "mul o=b" xy (in_place y (fun o -> Fe25519.mul o x o));
  same "mul o=a=b" xx (in_place x (fun o -> Fe25519.mul o o o));
  same "square o=a" sq (in_place x (fun o -> Fe25519.square o o))

(* A batch of 1-40 elements for [batch_invert]: random values, lazy
   operands up to the input bound, and representations of zero (0, and
   p and 2p word-wise), so that zeros sit anywhere, alone or in runs. *)
let gen_batch rng =
  let p_words = Array.init 10 (fun i -> two_p i / 2) in
  let two_p_words = Array.init 10 two_p in
  Array.init
    (1 + Drbg.uniform ~rng 40)
    (fun _ ->
      match Drbg.uniform ~rng 8 with
      | 0 -> Fe25519.create ()
      | 1 -> Fe25519.of_words p_words
      | 2 -> Fe25519.of_words two_p_words
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
          (Array.length xs) (words_hex x)
      in
      let alone = Fe25519.create () in
      Fe25519.invert alone x;
      let o' = Fe25519_ref.create () in
      Fe25519_ref.invert o' (Fe25519_ref.unpack (Fe25519.pack x));
      require_carried what batch.(i);
      Prop.check_hex ~what:(what ^ " vs invert")
        (hex (Fe25519.pack alone))
        (hex (Fe25519.pack batch.(i)));
      Prop.check_hex ~what:(what ^ " vs oracle")
        (hex (Fe25519_ref.pack o'))
        (hex (Fe25519.pack batch.(i))))
    xs

(* An encoding for the pack/unpack check: random bytes, an encoding of
   p .. 2^255 - 1 (the ones at or above p), or either with the top bit
   set, which both sides must ignore. *)
let gen_encoding rng =
  let b = Prop.gen_fe_bytes rng in
  (match Drbg.uniform ~rng 3 with
  | 0 -> ()
  | _ ->
      Bytes.fill b 0 32 '\xff';
      Bytes_util.set_u8 b 0 (0xed + Drbg.uniform ~rng 19);
      Bytes_util.set_u8 b 31 0x7f);
  if Drbg.uniform ~rng 2 = 0 then
    Bytes_util.set_u8 b 31 (Bytes_util.get_u8 b 31 lor 0x80);
  b

(* [unpack] and [pack] against Fe25519_ref: the encoding itself, and a
   lazy value from it (a sum and a difference with a random element,
   and a stacked G), which [pack] must reduce the same way; [unpack]'s
   words must be carried. *)
let check_pack (ba, bb) =
  let what op = Printf.sprintf "%s(%s, %s)" op (hex ba) (hex bb) in
  let a = Fe25519.unpack ba and b = Fe25519.unpack bb in
  let a' = Fe25519_ref.unpack ba and b' = Fe25519_ref.unpack bb in
  require_carried (what "unpack") a;
  Prop.check_hex ~what:(what "pack unpack")
    (hex (Fe25519_ref.pack a'))
    (hex (Fe25519.pack a));
  List.iter
    (fun (name, op, op_ref) ->
      let o = Fe25519.create () and o' = Fe25519_ref.create () in
      op o a b;
      op_ref o' a' b';
      Prop.check_hex ~what:(what name) (hex (Fe25519_ref.pack o'))
        (hex (Fe25519.pack o)))
    [ ("add", Fe25519.add, Fe25519_ref.add);
      ("sub", Fe25519.sub, Fe25519_ref.sub);
      ( "g",
        (fun o a b ->
          Fe25519.add o a a;
          Fe25519.add o o b),
        fun o a b ->
          Fe25519_ref.add o a a;
          Fe25519_ref.add o o b ) ]

let run () =
  Prop.suite "fe25519 (radix-2^25.5 words) vs fe25519_ref (seed, 16-bit limbs)";
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
  Prop.vector ~name:"fe kernels at the word maxima" (fun () ->
      let carried = Fe25519.of_words carried_max in
      let at_bound = Fe25519.of_words bound_max in
      let g = Fe25519.of_words g_max and f = Fe25519.of_words f_max in
      List.iter check_at_bound
        [ (at_bound, at_bound); (g, g); (f, f); (f, g); (f, at_bound);
          (at_bound, carried); (g, carried); (carried, at_bound) ]);
  Prop.check ~name:"fe mul/square = schoolbook, word for word"
    (Prop.gen_pair gen_word_operand gen_word_operand)
    check_words;
  Prop.vector ~name:"fe mul/square = schoolbook at the word maxima"
    (fun () ->
      let edges =
        [ Array.make 10 0; Array.make 10 1; carried_max; g_max; f_max;
          bound_max ]
      in
      let alternating l r =
        Array.init 10 (fun i -> if i land 1 = 0 then l.(i) else r.(i))
      in
      List.iter
        (fun l ->
          List.iter
            (fun r ->
              check_words (Fe25519.of_words l, Fe25519.of_words r);
              check_words
                ( Fe25519.of_words (alternating l r),
                  Fe25519.of_words (alternating r l) ))
            edges)
        edges);
  Prop.check ~name:"fe invert" Prop.gen_fe_bytes
    (differential1 ~what:"invert" Fe25519.invert Fe25519_ref.invert);
  (* The addition chain on fixed edges: 0, 1, p - 1, the non-canonical
     p (= 0) and p + 1 (= 1), with 0 and p mapping to 0; and
     lazily-carried add/sub outputs (words above 26 or 25 bits), which
     the chain's first squaring must absorb. *)
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
  Prop.check ~name:"fe pack/unpack = oracle (>= p, top bit set, lazy)"
    (Prop.gen_pair gen_encoding gen_encoding)
    check_pack;
  (* The lazy-carry path: add/sub results are packed without an explicit
     carry, exercising pack's reduction of unreduced words; parity and
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
