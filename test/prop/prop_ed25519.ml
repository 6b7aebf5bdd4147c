(* Ed25519 over the radix-2^25.5 field: RFC 8032 §7.1 vectors, algebraic
   re-derivation of the curve constants (which edwards25519.ml states as
   canonical byte encodings), the fixed-base comb against double-and-add,
   and rejection tests for non-canonical s, small-order and
   non-canonical public keys, and wrong-length inputs. *)

open Vuvuzela_crypto

let hex = Bytes_util.to_hex
let of_hex = Bytes_util.of_hex

let rfc8032_vector ~name ~sk ~pk ~msg ~signature =
  Prop.vector ~name (fun () ->
      let sk = of_hex sk and msg = of_hex msg in
      Prop.check_hex ~what:"public key" pk (hex (Ed25519.public_key sk));
      let s = Ed25519.sign ~secret:sk msg in
      Prop.check_hex ~what:"signature" signature (hex s);
      Prop.require
        (Ed25519.verify ~public:(of_hex pk) ~signature:s msg)
        "signature does not verify")

(* L, little-endian. *)
let order_l =
  [|
    0xed; 0xd3; 0xf5; 0x5c; 0x1a; 0x63; 0x12; 0x58; 0xd6; 0x9c; 0xf7; 0xa2;
    0xde; 0xf9; 0xde; 0x14; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0x10;
  |]

(* forged = signature with L added to s (mod 2^256); returns None when
   the addition overflows 256 bits (no valid forgery to test). *)
let add_l_to_s signature =
  let forged = Bytes.copy signature in
  let carry = ref 0 in
  for i = 0 to 31 do
    let v = Bytes_util.get_u8 forged (32 + i) + order_l.(i) + !carry in
    Bytes_util.set_u8 forged (32 + i) (v land 0xff);
    carry := v lsr 8
  done;
  if !carry = 0 then Some forged else None

(* The eight torsion points of edwards25519, canonically encoded: the
   identity, the order-2 point (0, -1), the two order-4 points (y = 0)
   and the four order-8 points. *)
let torsion_points =
  [
    "0100000000000000000000000000000000000000000000000000000000000000";
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
    "0000000000000000000000000000000000000000000000000000000000000000";
    "0000000000000000000000000000000000000000000000000000000000000080";
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05";
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85";
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a";
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa";
  ]

(* The identity's three encodings: canonical, y = p + 1, and x = 0 with
   the sign bit set. *)
let identity_encodings =
  [
    "0100000000000000000000000000000000000000000000000000000000000000";
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
    "0100000000000000000000000000000000000000000000000000000000000080";
  ]

(* Further non-canonical encodings: y = p (= 0), and (0, -1) with the
   sign bit set. *)
let noncanonical_encodings =
  [
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff";
  ]

(* R = B, s = 1.  Under a key A of small order, R' = sB + h(-A) = B = R
   whenever h(-A) is the identity: for every message when A is the
   identity, for one in eight when A has order 8. *)
let forged_signature =
  of_hex
    ("5866666666666666666666666666666666666666666666666666666666666666"
   ^ "0100000000000000000000000000000000000000000000000000000000000000")

let comb_agrees k =
  let open Edwards25519 in
  Prop.check_hex
    ~what:(Printf.sprintf "scalarmult_base(%s)" (hex k))
    (hex (encode (scalarmult_vartime (base_point ()) k)))
    (hex (encode (scalarmult_base k)))

let run () =
  Prop.suite "ed25519 (rfc 8032 vectors + rejections)";
  rfc8032_vector ~name:"rfc8032 test 1 (empty message)"
    ~sk:"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
    ~pk:"d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
    ~msg:""
    ~signature:
      "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b";
  rfc8032_vector ~name:"rfc8032 test 2 (one byte)"
    ~sk:"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"
    ~pk:"3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
    ~msg:"72"
    ~signature:
      "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00";
  rfc8032_vector ~name:"rfc8032 test 3 (two bytes)"
    ~sk:"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7"
    ~pk:"fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
    ~msg:"af82"
    ~signature:
      "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a";
  rfc8032_vector ~name:"rfc8032 test SHA(abc)"
    ~sk:"833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42"
    ~pk:"ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf"
    ~msg:
      "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
    ~signature:
      "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b58909351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704";
  (* The curve constants stated as byte encodings in edwards25519.ml, checked
     algebraically over Fe25519: d = -121665/121666, 2d = d + d,
     I^2 = -1, and the base point satisfies the curve equation
     -x^2 + y^2 = 1 + d x^2 y^2. *)
  Prop.vector ~name:"curve constants re-derived" (fun () ->
      let open Fe25519 in
      let d =
        unpack
          (of_hex
             "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352")
      in
      let i_const =
        unpack
          (of_hex
             "b0a00e4a271beec478e42fad0618432fa7d7fb3d99004d2b0bdfc14f8024832b")
      in
      let bx =
        unpack
          (of_hex
             "1ad5258f602d56c9b2a7259560c72c695cdcd6fd31e2a4c0fe536ecdd3366921")
      in
      let by =
        unpack
          (of_hex
             "5866666666666666666666666666666666666666666666666666666666666666")
      in
      (* d * 121666 + 121665 = 0 *)
      let t = create () in
      mul_small t d 121666;
      let c121665 = of_words [| 121665; 0; 0; 0; 0; 0; 0; 0; 0; 0 |] in
      add t t c121665;
      Prop.require (equal t (zero ())) "d <> -121665/121666";
      (* 2d = d + d *)
      let d2 =
        unpack
          (of_hex
             "59f1b226949bd6eb56b183829a14e00030d1f3eef2808e19e7fcdf56dcd90624")
      in
      let dd = create () in
      add dd d d;
      Prop.require (equal dd d2) "2d constant <> d + d";
      (* I^2 = -1 *)
      let ii = create () in
      square ii i_const;
      let minus_one = create () in
      sub minus_one (zero ()) (one ());
      Prop.require (equal ii minus_one) "I^2 <> -1";
      (* curve equation at the base point *)
      let x2 = create () and y2 = create () in
      square x2 bx;
      square y2 by;
      let lhs = create () in
      sub lhs y2 x2;
      let rhs = create () and xy2 = create () in
      mul xy2 x2 y2;
      mul rhs d xy2;
      add rhs rhs (one ());
      Prop.require (equal lhs rhs) "base point not on the curve");
  (* Sign/verify roundtrip over generated seeds and messages. *)
  Prop.check ~name:"sign/verify roundtrip" ~count:50
    Prop.(gen_pair (gen_bytes 32) (gen_bytes 100))
    (fun (seed, msg) ->
      let pk = Ed25519.public_key seed in
      let signature = Ed25519.sign ~secret:seed msg in
      Prop.require
        (Ed25519.verify ~public:pk ~signature msg)
        "fresh signature rejected";
      let other = Bytes.cat msg (Bytes.of_string "x") in
      Prop.require
        (not (Ed25519.verify ~public:pk ~signature other))
        "signature verified for a different message");
  (* Non-canonical s: s + L (same group element, different encoding) and
     s = L itself must both be rejected. *)
  Prop.check ~name:"non-canonical s rejected" ~count:50
    Prop.(gen_pair (gen_bytes 32) (gen_bytes 64))
    (fun (seed, msg) ->
      let pk = Ed25519.public_key seed in
      let signature = Ed25519.sign ~secret:seed msg in
      (match add_l_to_s signature with
      | Some forged ->
          Prop.require
            (not (Ed25519.verify ~public:pk ~signature:forged msg))
            "s + L accepted (malleable encoding)"
      | None -> ());
      let s_is_l = Bytes.copy signature in
      for i = 0 to 31 do
        Bytes_util.set_u8 s_is_l (32 + i) order_l.(i)
      done;
      Prop.require
        (not (Ed25519.verify ~public:pk ~signature:s_is_l msg))
        "s = L accepted");
  (* Wrong-length signatures and keys return false, never raise. *)
  Prop.check ~name:"wrong-length signature/key rejected" ~count:50
    Prop.(gen_pair (gen_bytes 32) (gen_bytes 32))
    (fun (seed, msg) ->
      let pk = Ed25519.public_key seed in
      let signature = Ed25519.sign ~secret:seed msg in
      List.iter
        (fun n ->
          Prop.require
            (not (Ed25519.verify ~public:pk ~signature:(Bytes.make n 'x') msg))
            "length-%d signature accepted" n)
        [ 0; 1; 32; 63; 65; 128 ];
      List.iter
        (fun n ->
          Prop.require
            (not (Ed25519.verify ~public:(Bytes.make n 'k') ~signature msg))
            "length-%d public key accepted" n)
        [ 0; 31; 33 ]);
  (* The comb (every base multiplication: public keys, R = rB, sB) must
     equal double-and-add on B for any scalar below 2^255 — not only
     clamped ones — including 0, 1, L - 1, L, L + 1, 2^255 - 1 and every
     nibble 8 below the top one. *)
  Prop.check ~name:"comb = double-and-add on B" ~count:200 (Prop.gen_bytes 32)
    (fun k ->
      Bytes_util.set_u8 k 31 (Bytes_util.get_u8 k 31 land 0x7f);
      comb_agrees k);
  Prop.vector ~name:"comb edge scalars" (fun () ->
      let of_le f = Bytes.init 32 (fun i -> Char.chr (f i)) in
      let l_plus c =
        let carry = ref c in
        of_le (fun i ->
            let v = order_l.(i) + !carry in
            carry := v asr 8;
            v land 0xff)
      in
      List.iter comb_agrees
        [
          of_le (fun _ -> 0); of_le (fun i -> if i = 0 then 1 else 0);
          l_plus (-1); l_plus 0; l_plus 1;
          of_le (fun i -> if i = 31 then 0x7f else 0xff);
          of_le (fun i -> if i = 31 then 0x78 else 0x88);
        ];
      match Edwards25519.scalarmult_base (Bytes.make 32 '\xff') with
      | _ -> Prop.fail "scalar with bit 255 set accepted"
      | exception Invalid_argument _ -> ());
  (* Strict decoding and the small-order check: every torsion point
     decodes and is flagged, real keys are not, and the non-canonical
     encodings do not decode. *)
  Prop.vector ~name:"torsion points flagged, non-canonical undecodable"
    (fun () ->
      List.iter
        (fun enc ->
          match Edwards25519.decode_neg (of_hex enc) with
          | None -> Prop.fail "torsion point %s does not decode" enc
          | Some p ->
              Prop.require
                (Edwards25519.has_small_order p)
                "torsion point %s not flagged" enc)
        torsion_points;
      List.iter
        (fun pk ->
          match Edwards25519.decode_neg (of_hex pk) with
          | None -> Prop.fail "key %s does not decode" pk
          | Some p ->
              Prop.require
                (not (Edwards25519.has_small_order p))
                "key %s flagged as small-order" pk)
        [
          "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a";
          "5866666666666666666666666666666666666666666666666666666666666666";
        ];
      List.iter
        (fun enc ->
          Prop.require
            (Option.is_none (Edwards25519.decode_neg (of_hex enc)))
            "non-canonical %s decodes" enc)
        (List.tl identity_encodings @ noncanonical_encodings));
  (* One forged signature under a small-order or non-canonical key must
     verify no message (RFC 8032 §5.1.3 decoding; libsodium's
     small-order rule). *)
  Prop.check ~name:"small-order / non-canonical keys rejected" ~count:50
    (Prop.gen_bytes 32) (fun msg ->
      List.iter
        (fun pk ->
          Prop.require
            (not
               (Ed25519.verify ~public:(of_hex pk) ~signature:forged_signature
                  msg))
            "forged signature verifies %s under key %s" (hex msg) pk)
        (identity_encodings @ torsion_points @ noncanonical_encodings))
