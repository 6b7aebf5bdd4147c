(* X25519: full-ladder, fixed-base and keyed (memoised server-key comb)
   differential agreement against the seed implementation, the comb paths
   across domains, plus Wycheproof-style edge-case vectors and the
   RFC 7748 iterated test. *)

open Vuvuzela_crypto
module Pool = Vuvuzela_parallel.Pool

let hex = Bytes_util.to_hex
let of_hex = Bytes_util.of_hex

(* The seven low-order points of Curve25519 (libsodium's blacklist):
   u = 0, u = 1, the two order-8 points, and the non-canonical encodings
   p - 1, p, p + 1.  A clamped scalar is ≡ 0 (mod 8), so the ladder maps
   every one of them to the neutral element, encoded as all zeros. *)
let low_order_points =
  [
    "0000000000000000000000000000000000000000000000000000000000000000";
    "0100000000000000000000000000000000000000000000000000000000000000";
    "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800";
    "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157";
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
  ]

let fixed_base_agrees scalar =
  let fixed = Curve25519.scalarmult_base scalar in
  Prop.check_hex
    ~what:(Printf.sprintf "scalarmult_base(%s) vs ref" (hex scalar))
    (hex (Curve25519_ref.scalarmult_base scalar))
    (hex fixed);
  Prop.check_hex
    ~what:(Printf.sprintf "scalarmult_base(%s) vs general" (hex scalar))
    (hex (Curve25519.scalarmult ~scalar ~point:Curve25519_ref.base_point))
    (hex fixed)

(* Scalars (before clamping) whose digits hit the recoding's corners:
   every nibble 8 (a carry through all 64 digits), all ones (clamped to
   a top byte 0x7f whose top digit recodes to 8), all zeros (only the
   clamp bit 254), the two clamped top bytes 0x7f and 0x40 over zeros,
   and a top byte 0x78 over zeros (low nibble 8 carries, top digit 8). *)
let recoding_edges =
  let top b =
    let s = Bytes.make 32 '\000' in
    Bytes_util.set_u8 s 31 b;
    s
  in
  [
    Bytes.make 32 '\x88'; Bytes.make 32 '\xff'; Bytes.make 32 '\000';
    top 0x7f; top 0x40; top 0x78;
  ]

(* [shared_static] must equal the seed ladder on every key, whether it
   runs the comb over the key's table or falls back to the ladder. *)
let keyed_agrees ~scalar ~point =
  Prop.check_hex
    ~what:(Printf.sprintf "shared_static(%s, %s) vs ref" (hex scalar) (hex point))
    (hex (Curve25519_ref.scalarmult ~scalar ~point))
    (hex (Curve25519.shared_static ~secret:scalar ~public:point))

let on_curve_key rng = Curve25519.scalarmult_base (Drbg.generate rng 32)

let run_keyed () =
  Prop.check ~name:"x25519 keyed comb = ref (on-curve keys)" ~count:1000
    Prop.(gen_pair (gen_bytes 32) on_curve_key)
    (fun (scalar, point) -> keyed_agrees ~scalar ~point);
  (* Random u: about half lie on the twist and must take the ladder,
     the rest the comb; the counters say which ran. *)
  let twist = ref 0 and curve = ref 0 in
  Prop.check ~name:"x25519 keyed = ref (random u, twist -> ladder)" ~count:200
    Prop.(gen_pair (gen_bytes 32) (gen_bytes 32))
    (fun (scalar, point) ->
      let before = Curve25519.op_counts () in
      keyed_agrees ~scalar ~point;
      let after = Curve25519.op_counts () in
      let on_twist = Edwards25519.of_montgomery_u point = None in
      if on_twist then incr twist else incr curve;
      Prop.require
        (after.Curve25519.ladder - before.Curve25519.ladder
         = Bool.to_int on_twist
        && after.keyed - before.keyed = Bool.to_int (not on_twist))
        "u %s (twist: %b) ran %d ladder, %d keyed" (hex point) on_twist
        (after.ladder - before.ladder)
        (after.keyed - before.keyed));
  Prop.vector ~name:"x25519 keyed random u hit both paths" (fun () ->
      Prop.require (!twist > 50 && !curve > 50)
        "%d twist, %d on-curve of 200" !twist !curve);
  Prop.check ~name:"x25519 keyed = ref (low-order, top bit, u + p)" ~count:25
    (Prop.gen_bytes 33) (fun b ->
      let scalar = Bytes.sub b 0 32 in
      List.iter
        (fun p_hex -> keyed_agrees ~scalar ~point:(of_hex p_hex))
        low_order_points;
      let key = on_curve_key (Drbg.of_string (hex b)) in
      let top = Bytes.copy key in
      Bytes_util.set_u8 top 31 (Bytes_util.get_u8 top 31 lor 0x80);
      keyed_agrees ~scalar ~point:top;
      (* u + p = u - 19 + 2^255, for u < 19 *)
      let u = Bytes_util.get_u8 b 32 mod 19 in
      let small = Bytes.make 32 '\000' in
      Bytes_util.set_u8 small 0 u;
      let shifted = Bytes.make 32 '\xff' in
      Bytes_util.set_u8 shifted 0 (0xed + u);
      Bytes_util.set_u8 shifted 31 0x7f;
      keyed_agrees ~scalar ~point:small;
      keyed_agrees ~scalar ~point:shifted);
  Prop.check ~name:"x25519 of_montgomery_u inverts montgomery_u" ~count:1000
    (Prop.gen_bytes 32) (fun scalar ->
      let u = Curve25519.scalarmult_base scalar in
      match Edwards25519.of_montgomery_u u with
      | None -> Prop.fail "no Edwards point for u %s" (hex u)
      | Some p ->
          Prop.check_hex ~what:"montgomery_u (of_montgomery_u u)" (hex u)
            (hex (Edwards25519.montgomery_u p)));
  (* Two domains miss on the same fresh key at once: both may build its
     table, one insert wins, and every result still equals the
     sequential one. *)
  Prop.vector ~name:"x25519 keyed first use across 2 domains" (fun () ->
      let rng = Drbg.of_string "prop-x25519-keyed-domains" in
      let key = on_curve_key rng in
      let scalars = Array.init 256 (fun _ -> Drbg.generate rng 32) in
      let pool = Pool.create ~jobs:2 in
      let parallel =
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            Pool.mapi_array pool
              (fun _ secret -> Curve25519.shared_static ~secret ~public:key)
              scalars)
      in
      Array.iteri
        (fun i scalar ->
          Prop.check_hex
            ~what:(Printf.sprintf "scalar %d (%s)" i (hex scalar))
            (hex (Curve25519.shared ~secret:scalar ~public:key))
            (hex parallel.(i)))
        scalars);
  (* More keys than the memo holds, cycled twice: every lookup after the
     first pass misses and rebuilds, and still equals the ladder. *)
  Prop.vector ~name:"x25519 keyed memo overflow (cap + 2 keys, twice)"
    (fun () ->
      let rng = Drbg.of_string "prop-x25519-keyed-overflow" in
      let keys =
        List.init (Curve25519.static_keys_cap + 2) (fun _ -> on_curve_key rng)
      in
      for pass = 1 to 2 do
        List.iteri
          (fun i public ->
            let secret = Drbg.generate rng 32 in
            Prop.check_hex
              ~what:(Printf.sprintf "pass %d, key %d" pass i)
              (hex (Curve25519.shared ~secret ~public))
              (hex (Curve25519.shared_static ~secret ~public)))
          keys
      done)

(* u + p = u - 19 + 2^255, a non-canonical encoding of u < 19. *)
let u_plus_p u =
  let b = Bytes.make 32 '\xff' in
  Bytes_util.set_u8 b 0 (0xed + u);
  Bytes_util.set_u8 b 31 0x7f;
  b

(* A batch of 1-12 operations of every kind: ladders over random u,
   low-order points and u + p encodings; base combs; keyed combs toward
   on-curve, twist and low-order keys.  Two keys of each of the first
   two sorts keep the memo of comb tables from thrashing on every
   case. *)
let batch_keys =
  let rng = Drbg.of_string "prop-x25519-batch-keys" in
  let rec twist () =
    let u = Drbg.generate rng 32 in
    if Edwards25519.of_montgomery_u u = None then u else twist ()
  in
  Array.of_list
    (List.init 2 (fun _ -> on_curve_key rng)
    @ List.init 2 (fun _ -> twist ())
    @ List.map of_hex low_order_points)

let gen_ops rng =
  let pick l = List.nth l (Drbg.uniform ~rng (List.length l)) in
  Array.init
    (1 + Drbg.uniform ~rng 12)
    (fun _ ->
      let scalar = Drbg.generate rng 32 in
      match Drbg.uniform ~rng 3 with
      | 0 ->
          let point =
            match Drbg.uniform ~rng 3 with
            | 0 -> Drbg.generate rng 32
            | 1 -> of_hex (pick low_order_points)
            | _ -> u_plus_p (Drbg.uniform ~rng 19)
          in
          Curve25519.Ladder { scalar; point }
      | 1 -> Curve25519.Base scalar
      | _ ->
          let public =
            batch_keys.(Drbg.uniform ~rng (Array.length batch_keys))
          in
          Curve25519.Keyed { secret = scalar; public })

let describe = function
  | Curve25519.Ladder { scalar; point } ->
      Printf.sprintf "ladder(%s, %s)" (hex scalar) (hex point)
  | Base scalar -> Printf.sprintf "base(%s)" (hex scalar)
  | Keyed { secret; public } ->
      Printf.sprintf "keyed(%s, %s)" (hex secret) (hex public)

(* The batch equals each operation run alone and the seed ladder, and
   moves the counters by what the operations alone do. *)
let check_batch ops =
  let counts () = Curve25519.op_counts () in
  let delta (a : Curve25519.op_counts) (b : Curve25519.op_counts) =
    (b.ladder - a.ladder, b.base - a.base, b.keyed - a.keyed)
  in
  let c0 = counts () in
  let batch = Curve25519.batch ops in
  let c1 = counts () in
  let alone =
    Array.map
      (function
        | Curve25519.Ladder { scalar; point } ->
            Curve25519.scalarmult ~scalar ~point
        | Base scalar -> Curve25519.scalarmult_base scalar
        | Keyed { secret; public } -> Curve25519.shared_static ~secret ~public)
      ops
  in
  let c2 = counts () in
  Array.iteri
    (fun i op ->
      let what = Printf.sprintf "op %d of %d, %s" i (Array.length ops) (describe op) in
      let oracle =
        match op with
        | Curve25519.Ladder { scalar; point } ->
            Curve25519_ref.scalarmult ~scalar ~point
        | Base scalar -> Curve25519_ref.scalarmult_base scalar
        | Keyed { secret; public } ->
            Curve25519_ref.scalarmult ~scalar:secret ~point:public
      in
      Prop.check_hex ~what:(what ^ " vs alone") (hex alone.(i)) (hex batch.(i));
      Prop.check_hex ~what:(what ^ " vs ref") (hex oracle) (hex batch.(i)))
    ops;
  let l, b, k = delta c0 c1 and l', b', k' = delta c1 c2 in
  Prop.require
    ((l, b, k) = (l', b', k'))
    "batch of %d counted (ladder %d, base %d, keyed %d), alone (%d, %d, %d)"
    (Array.length ops) l b k l' b' k'

let run () =
  Prop.suite
    "x25519 (ladder, Edwards comb) vs curve25519_ref (seed ladder)";
  (* ≥200 full ladder agreements over arbitrary scalar/point bytes. *)
  Prop.check ~name:"x25519 ladder agreement" ~count:200
    Prop.(gen_pair (gen_bytes 32) (gen_bytes 32))
    (fun (scalar, point) ->
      Prop.check_hex
        ~what:
          (Printf.sprintf "scalarmult(%s, %s)" (hex scalar) (hex point))
        (hex (Curve25519_ref.scalarmult ~scalar ~point))
        (hex (Curve25519.scalarmult ~scalar ~point)));
  (* The fixed-base path (the Edwards comb) must agree with both the
     reference ladder and our own variable-base ladder: over random
     scalars, and over fixed ones that stress the signed radix-16
     recoding. *)
  Prop.check ~name:"x25519 fixed-base = ref and general" ~count:1000
    (Prop.gen_bytes 32) fixed_base_agrees;
  Prop.vector ~name:"x25519 fixed-base recoding edges" (fun () ->
      List.iter fixed_base_agrees recoding_edges);
  (* The comb table is built once at module initialisation and shared
     read-only by every domain. *)
  Prop.vector ~name:"x25519 fixed-base across 2 domains = sequential"
    (fun () ->
      let rng = Drbg.of_string "prop-x25519-domains" in
      let scalars = Array.init 256 (fun _ -> Drbg.generate rng 32) in
      let pool = Pool.create ~jobs:2 in
      let parallel =
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            Pool.mapi_array pool
              (fun _ s -> Curve25519.scalarmult_base s)
              scalars)
      in
      Array.iteri
        (fun i scalar ->
          Prop.check_hex
            ~what:(Printf.sprintf "scalar %d (%s)" i (hex scalar))
            (hex (Curve25519.scalarmult_base scalar))
            (hex parallel.(i)))
        scalars);
  run_keyed ();
  Prop.check ~name:"x25519 batch = alone and ref, same op counts" ~count:100
    gen_ops check_batch;
  (* Wycheproof-style edges. *)
  Prop.check ~name:"low-order points map to zero" ~count:25
    (Prop.gen_bytes 32) (fun scalar ->
      List.iter
        (fun p_hex ->
          let point = of_hex p_hex in
          let out = Curve25519.scalarmult ~scalar ~point in
          Prop.require
            (Bytes.equal out (Bytes.make 32 '\000'))
            "low-order point %s did not map to zero (got %s)" p_hex
            (hex out);
          Prop.check_hex
            ~what:(Printf.sprintf "ref agrees on low-order %s" p_hex)
            (hex (Curve25519_ref.scalarmult ~scalar ~point))
            (hex out))
        low_order_points);
  Prop.check ~name:"u-coordinate high bit is masked" ~count:100
    Prop.(gen_pair (gen_bytes 32) (gen_bytes 32))
    (fun (scalar, point) ->
      let masked = Bytes.copy point in
      Bytes_util.set_u8 masked 31 (Bytes_util.get_u8 masked 31 land 0x7f);
      let set = Bytes.copy point in
      Bytes_util.set_u8 set 31 (Bytes_util.get_u8 set 31 lor 0x80);
      Prop.check_hex
        ~what:(Printf.sprintf "high bit ignored on %s" (hex point))
        (hex (Curve25519.scalarmult ~scalar ~point:masked))
        (hex (Curve25519.scalarmult ~scalar ~point:set)));
  (* Non-canonical encodings: u and u + p encode the same field element
     (for u < 19, u + p still fits in 255 bits). *)
  Prop.check ~name:"non-canonical u (u vs u + p)" ~count:100
    (Prop.gen_bytes 33) (fun b ->
      let scalar = Bytes.sub b 0 32 in
      let u = Bytes_util.get_u8 b 32 mod 19 in
      let canonical = Bytes.make 32 '\000' in
      Bytes_util.set_u8 canonical 0 u;
      (* u + p = u - 19 + 2^255 *)
      let shifted = Bytes.make 32 '\xff' in
      Bytes_util.set_u8 shifted 0 (0xed + u);
      Bytes_util.set_u8 shifted 31 0x7f;
      Prop.check_hex
        ~what:(Printf.sprintf "u=%d vs u+p" u)
        (hex (Curve25519.scalarmult ~scalar ~point:canonical))
        (hex (Curve25519.scalarmult ~scalar ~point:shifted)));
  (* RFC 7748 §5.2 iterated vector, 1000 iterations (on the fast
     implementation; the alcotest suite keeps its own copy). *)
  Prop.vector ~name:"rfc7748 iterated ladder (1k)" (fun () ->
      let k =
        ref
          (of_hex
             "0900000000000000000000000000000000000000000000000000000000000000")
      in
      let u = ref !k in
      for i = 1 to 1000 do
        let r = Curve25519.scalarmult ~scalar:!k ~point:!u in
        u := !k;
        k := r;
        if i = 1 then
          Prop.check_hex ~what:"after 1 iteration"
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
            (hex !k)
      done;
      Prop.check_hex ~what:"after 1000 iterations"
        "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        (hex !k))
