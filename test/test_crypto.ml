(* Crypto substrate tests: RFC/NIST vectors plus qcheck properties. *)

open Vuvuzela_crypto

let hex = Bytes_util.of_hex
let check_hex msg expected actual =
  Alcotest.(check string) msg expected (Bytes_util.to_hex actual)

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4 / NIST CAVS)                                    *)
(* ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  check_hex "sha256(abc)"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc");
  check_hex "sha256(empty)"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "");
  check_hex "sha256(two blocks)"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string
       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "sha256(million a)"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (Bytes.make 1_000_000 'a'))

let test_sha256_incremental () =
  (* Feeding in odd-sized chunks must agree with one-shot digesting. *)
  let data = Bytes.init 1000 (fun i -> Char.chr (i land 0xff)) in
  let expected = Bytes_util.to_hex (Sha256.digest data) in
  let t = Sha256.init () in
  let pos = ref 0 in
  let sizes = [ 1; 7; 63; 64; 65; 100; 128; 200; 372 ] in
  List.iter
    (fun n ->
      Sha256.feed t (Bytes.sub data !pos n);
      pos := !pos + n)
    sizes;
  assert (!pos = 1000);
  check_hex "incremental = one-shot" expected (Sha256.get t)

let test_sha256_get_nondestructive () =
  let t = Sha256.init () in
  Sha256.feed t (Bytes.of_string "ab");
  let d1 = Sha256.get t in
  let d2 = Sha256.get t in
  check_hex "get twice agrees" (Bytes_util.to_hex d1) d2;
  Sha256.feed t (Bytes.of_string "c");
  check_hex "can continue after get"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.get t)

(* ------------------------------------------------------------------ *)
(* HMAC-SHA256 (RFC 4231)                                              *)
(* ------------------------------------------------------------------ *)

let test_hmac_vectors () =
  let case name key data expected =
    check_hex name expected (Hmac.sha256 ~key data)
  in
  case "rfc4231 tc1"
    (Bytes.make 20 '\x0b')
    (Bytes.of_string "Hi There")
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  case "rfc4231 tc2" (Bytes.of_string "Jefe")
    (Bytes.of_string "what do ya want for nothing?")
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  case "rfc4231 tc3" (Bytes.make 20 '\xaa') (Bytes.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  case "rfc4231 tc4"
    (hex "0102030405060708090a0b0c0d0e0f10111213141516171819")
    (Bytes.make 50 '\xcd')
    "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b";
  case "rfc4231 tc6 (large key)" (Bytes.make 131 '\xaa')
    (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
  case "rfc4231 tc7 (large key+data)" (Bytes.make 131 '\xaa')
    (Bytes.of_string
       "This is a test using a larger than block-size key and a larger \
        than block-size data. The key needs to be hashed before being \
        used by the HMAC algorithm.")
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"

let test_hmac_verify () =
  let key = Bytes.of_string "k" and data = Bytes.of_string "d" in
  let tag = Hmac.sha256 ~key data in
  let verify ~tag = Bytes_util.ct_equal tag (Hmac.sha256 ~key data) in
  Alcotest.(check bool) "verify ok" true (verify ~tag);
  let bad = Bytes.copy tag in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
  Alcotest.(check bool) "verify bad" false (verify ~tag:bad)

(* ------------------------------------------------------------------ *)
(* HKDF (RFC 5869)                                                     *)
(* ------------------------------------------------------------------ *)

let test_hkdf_vectors () =
  let okm =
    Hkdf.derive
      ~salt:(hex "000102030405060708090a0b0c")
      ~ikm:(Bytes.make 22 '\x0b')
      ~info:(hex "f0f1f2f3f4f5f6f7f8f9")
      42
  in
  check_hex "rfc5869 tc1"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    okm;
  let prk = Hkdf.extract ~salt:(hex "000102030405060708090a0b0c") (Bytes.make 22 '\x0b') in
  check_hex "rfc5869 tc1 prk"
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" prk;
  let okm3 = Hkdf.derive ~ikm:(Bytes.make 22 '\x0b') 42 in
  check_hex "rfc5869 tc3 (no salt, no info)"
    "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    okm3

(* ------------------------------------------------------------------ *)
(* ChaCha20 (RFC 8439)                                                 *)
(* ------------------------------------------------------------------ *)

let test_chacha20_block () =
  let key = hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = hex "000000090000004a00000000" in
  check_hex "rfc8439 2.3.2 block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Chacha20.block ~key ~nonce ~counter:1)

let sunscreen =
  "Ladies and Gentlemen of the class of '99: If I could offer you only \
   one tip for the future, sunscreen would be it."

let test_chacha20_encrypt () =
  let key = hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = hex "000000000000004a00000000" in
  let ct = Chacha20.encrypt ~counter:1 ~key ~nonce (Bytes.of_string sunscreen) in
  check_hex "rfc8439 2.4.2 ciphertext"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d"
    ct;
  Alcotest.(check string) "roundtrip" sunscreen
    (Bytes.to_string (Chacha20.encrypt ~counter:1 ~key ~nonce ct))

(* ------------------------------------------------------------------ *)
(* Poly1305 (RFC 8439)                                                 *)
(* ------------------------------------------------------------------ *)

let test_poly1305_vector () =
  let key = hex "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  check_hex "rfc8439 2.5.2 tag" "a8061dc1305136c6c22b8baf0c0127a9"
    (Poly1305.mac ~key (Bytes.of_string "Cryptographic Forum Research Group"))

let test_poly1305_incremental () =
  let key = Drbg.generate (Drbg.of_string "poly-inc") 32 in
  let data = Drbg.generate (Drbg.of_string "poly-data") 333 in
  let one_shot = Poly1305.mac ~key data in
  let t = Poly1305.init key in
  let pos = ref 0 in
  List.iter
    (fun n ->
      Poly1305.feed t (Bytes.sub data !pos n);
      pos := !pos + n)
    [ 1; 15; 16; 17; 31; 100; 153 ];
  assert (!pos = 333);
  check_hex "incremental = one-shot" (Bytes_util.to_hex one_shot)
    (Poly1305.finish t)

(* Edge cases around the 2^130-5 modulus: an all-0xff block exercises the
   final conditional subtraction. *)
let test_poly1305_edge () =
  (* r = 2-ish, data forcing h ≈ p: from the RFC's security considerations
     appendix (test vector 2 of poly1305-donna). *)
  let key = hex "0200000000000000000000000000000000000000000000000000000000000000" in
  let data = hex "ffffffffffffffffffffffffffffffff" in
  (* h = 2^128 - 1 + 2^128 = ..., tag = 03000... *)
  check_hex "wrap edge" "03000000000000000000000000000000"
    (Poly1305.mac ~key data)

(* ------------------------------------------------------------------ *)
(* AEAD (RFC 8439 §2.8.2)                                              *)
(* ------------------------------------------------------------------ *)

let test_aead_vector () =
  let key = hex "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f" in
  let nonce = hex "070000004041424344454647" in
  let aad = hex "50515253c0c1c2c3c4c5c6c7" in
  let sealed = Aead.seal ~key ~nonce ~aad (Bytes.of_string sunscreen) in
  check_hex "rfc8439 2.8.2 ct||tag"
    ("d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
      3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
      92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
      3ff4def08e4b7a9de576d26586cec64b6116"
    ^ "1ae10b594f09e26a7e902ecbd0600691")
    sealed;
  (match Aead.open_ ~key ~nonce ~aad sealed with
  | Some pt -> Alcotest.(check string) "roundtrip" sunscreen (Bytes.to_string pt)
  | None -> Alcotest.fail "AEAD open failed");
  (* Any bit flip anywhere must be rejected. *)
  for i = 0 to Bytes.length sealed - 1 do
    let bad = Bytes.copy sealed in
    Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor 0x40));
    match Aead.open_ ~key ~nonce ~aad bad with
    | None -> ()
    | Some _ -> Alcotest.fail (Printf.sprintf "tamper at byte %d accepted" i)
  done

let test_aead_wrong_aad () =
  let key = Bytes.make 32 '\x01' in
  let nonce = Aead.nonce_of ~domain:7 ~counter:42 in
  let sealed = Aead.seal ~key ~nonce ~aad:(Bytes.of_string "a") (Bytes.of_string "m") in
  Alcotest.(check bool) "wrong aad rejected" true
    (Aead.open_ ~key ~nonce ~aad:(Bytes.of_string "b") sealed = None);
  Alcotest.(check bool) "short input rejected" true
    (Aead.open_ ~key ~nonce (Bytes.make 3 'x') = None)


(* ------------------------------------------------------------------ *)
(* RFC 8439 standards vector tables                                    *)
(*                                                                     *)
(* Table-driven vectors from the RFC body and appendix A, each run     *)
(* against BOTH the optimized fast path and the retained seed oracle   *)
(* [Chacha20_ref], so a regression in either implementation — or any   *)
(* divergence between them — fails here before the differential prop   *)
(* suite even runs.                                                    *)
(* ------------------------------------------------------------------ *)

(* The two long appendix plaintexts (A.2 / A.3). *)
let ietf_text =
  "Any submission to the IETF intended by the Contributor for \
   publication as all or part of an IETF Internet-Draft or RFC and any \
   statement made within the context of an IETF activity is considered \
   an \"IETF Contribution\". Such statements include oral statements in \
   IETF sessions, as well as written and electronic communications made \
   at any time or place, which are addressed to"

let jabberwock =
  "'Twas brillig, and the slithy toves\n\
   Did gyre and gimble in the wabe:\n\
   All mimsy were the borogoves,\n\
   And the mome raths outgrabe."

let k_zero = Bytes.make 32 '\000'
let n_zero = Bytes.make 12 '\000'
let k_one = hex "0000000000000000000000000000000000000000000000000000000000000001"
let k_jab = hex "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dcc806d3f9e4c0a"
let n_two = hex "000000000000000000000002"

(* ChaCha20 block function: §2.3.2 and A.1.  (The §2.3.2 counter=1 block
   is already pinned in [test_chacha20_block]; these are the appendix
   edge cases: counter 0, counter 2, key bit in the last word, nonce bit
   in the last word.) *)
let chacha_block_vectors =
  [
    ( "A.1 #1 (zero key/nonce, ctr 0)", k_zero, n_zero, 0,
      "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
       da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586" );
    ( "A.1 #2 (zero key/nonce, ctr 1)", k_zero, n_zero, 1,
      "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed\
       29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f" );
    ( "A.1 #3 (key ..01, ctr 1)", k_one, n_zero, 1,
      "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a\
       8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0" );
    ( "A.1 #4 (key 00ff.., ctr 2)",
      hex "00ff000000000000000000000000000000000000000000000000000000000000",
      n_zero, 2,
      "72d54dfbf12ec44b362692df94137f328fea8da73990265ec1bbbea1ae9af0ca\
       13b25aa26cb4a648cb9b9d1be65b2c0924a66c54d545ec1b7374f4872e99f096" );
    ( "A.1 #5 (nonce ..02, ctr 0)", k_zero,
      hex "000000000000000000000002", 0,
      "c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c7\
       8a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d" );
  ]

let test_chacha20_block_table () =
  List.iter
    (fun (name, key, nonce, counter, expected) ->
      check_hex (name ^ " [fast]") expected
        (Chacha20.block ~key ~nonce ~counter);
      check_hex (name ^ " [ref]") expected
        (Chacha20_ref.block ~key ~nonce ~counter))
    chacha_block_vectors

(* ChaCha20 encryption: A.2 (incl. the counter=2-spanning vectors; the
   §2.4.2 sunscreen vector lives in [test_chacha20_encrypt]). *)
let chacha_encrypt_vectors =
  [
    ( "A.2 #1 (zero, ctr 0, 64x00)", k_zero, n_zero, 0,
      Bytes.make 64 '\000',
      "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
       da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586" );
    ( "A.2 #2 (IETF text, ctr 1)", k_one, n_two, 1,
      Bytes.of_string ietf_text,
      "a3fbf07df3fa2fde4f376ca23e82737041605d9f4f4f57bd8cff2c1d4b7955ec\
       2a97948bd3722915c8f3d337f7d370050e9e96d647b7c39f56e031ca5eb6250d\
       4042e02785ececfa4b4bb5e8ead0440e20b6e8db09d881a7c6132f420e527950\
       42bdfa7773d8a9051447b3291ce1411c680465552aa6c405b7764d5e87bea85a\
       d00f8449ed8f72d0d662ab052691ca66424bc86d2df80ea41f43abf937d3259d\
       c4b2d0dfb48a6c9139ddd7f76966e928e635553ba76c5c879d7b35d49eb2e62b\
       0871cdac638939e25e8a1e0ef9d5280fa8ca328b351c3c765989cbcf3daa8b6c\
       cc3aaf9f3979c92b3720fc88dc95ed84a1be059c6499b9fda236e7e818b04b0b\
       c39c1e876b193bfe5569753f88128cc08aaa9b63d1a16f80ef2554d7189c411f\
       5869ca52c5b83fa36ff216b9c1d30062bebcfd2dc5bce0911934fda79a86f6e6\
       98ced759c3ff9b6477338f3da4f9cd8514ea9982ccafb341b2384dd902f3d1ab\
       7ac61dd29c6f21ba5b862f3730e37cfdc4fd806c22f221" );
    ( "A.2 #3 (jabberwock, ctr 42)", k_jab, n_two, 42,
      Bytes.of_string jabberwock,
      "4842b04530b464f51486a182060af45a1618ef17da32d434f346c35a23cd0d39\
       8cb42c674dbc38eaa562e2f214df48530895b24490fedde676e1d9d89ffb49f4\
       a93f500955fe23171b09bcefd9685c0e828de315c73e0705bea8cd38864e7b57\
       31e8cca33b296cdb901ac5a2a497a7e09868dd2d95ecb7dc1e98ebc447c141" );
  ]

let test_chacha20_encrypt_table () =
  List.iter
    (fun (name, key, nonce, counter, pt, expected) ->
      let ct = Chacha20.encrypt ~counter ~key ~nonce pt in
      check_hex (name ^ " [fast]") expected ct;
      check_hex (name ^ " [ref]") expected
        (Chacha20_ref.encrypt ~counter ~key ~nonce pt);
      Alcotest.(check bool)
        (name ^ " roundtrip") true
        (Bytes.equal pt (Chacha20.encrypt ~counter ~key ~nonce ct)))
    chacha_encrypt_vectors

(* Poly1305: A.3, including the r=0 edge keys (#1/#2), tag = s when
   r = 0 (#2/#3), and the h >= p wraparound constructions (#4-#9; the
   donna "#2" wrap case is in [test_poly1305_edge], the §2.5.2 vector in
   [test_poly1305_vector]). *)
let poly1305_vectors =
  [
    ( "A.3 #1 (zero key, 64x00)",
      "0000000000000000000000000000000000000000000000000000000000000000",
      Bytes.make 64 '\000', "00000000000000000000000000000000" );
    ( "A.3 #2 (r=0, tag = s)",
      "0000000000000000000000000000000036e5f6b5c5e06070f0efca96227a863e",
      Bytes.of_string ietf_text, "36e5f6b5c5e06070f0efca96227a863e" );
    ( "A.3 #3 (s=0)",
      "36e5f6b5c5e06070f0efca96227a863e00000000000000000000000000000000",
      Bytes.of_string ietf_text, "f3477e7cd95417af89a6b8794c310cf0" );
    ( "A.3 #4 (jabberwock)",
      "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dcc806d3f9e4c0a",
      Bytes.of_string jabberwock, "4541669a7eaaee61e70a002edbf3c2ac" );
    ( "A.3 #5 (h wraps 2^130-5)",
      "0200000000000000000000000000000000000000000000000000000000000000",
      hex "ffffffffffffffffffffffffffffffff",
      "03000000000000000000000000000000" );
    ( "A.3 #6 (s wraps 2^128)",
      "02000000000000000000000000000000ffffffffffffffffffffffffffffffff",
      hex "02000000000000000000000000000000",
      "03000000000000000000000000000000" );
    ( "A.3 #7 (5*H + L >= 2^130)",
      "0100000000000000000000000000000000000000000000000000000000000000",
      hex "fffffffffffffffffffffffffffffffff0ffffffffffffffffffffffffffff\
           ff11000000000000000000000000000000",
      "05000000000000000000000000000000" );
    ( "A.3 #8 (h = 0 after reduction)",
      "0100000000000000000000000000000000000000000000000000000000000000",
      hex "fffffffffffffffffffffffffffffffffbfefefefefefefefefefefefefefe\
           fe01010101010101010101010101010101",
      "00000000000000000000000000000000" );
    ( "A.3 #9 (2^130-6 -> -5 -> tag)",
      "0200000000000000000000000000000000000000000000000000000000000000",
      hex "fdffffffffffffffffffffffffffffff",
      "faffffffffffffffffffffffffffffff" );
  ]

let test_poly1305_table () =
  List.iter
    (fun (name, key_hex, msg, expected) ->
      check_hex name expected (Poly1305.mac ~key:(hex key_hex) msg))
    poly1305_vectors

(* Poly1305 key generation (§2.6.2 + A.4): the fast path derives the
   one-time key via a direct 32-byte [keystream_into]; the reference
   slices the counter-0 block.  Both must match the RFC. *)
let ref_poly_key ~key ~nonce =
  Bytes.sub (Chacha20_ref.block ~key ~nonce ~counter:0) 0 32

let poly_key_vectors =
  [
    ( "2.6.2",
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f",
      "000000000001020304050607",
      "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646" );
    ( "A.4 #1 (zero)",
      "0000000000000000000000000000000000000000000000000000000000000000",
      "000000000000000000000000",
      "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7" );
    ( "A.4 #2 (key ..01)",
      "0000000000000000000000000000000000000000000000000000000000000001",
      "000000000000000000000002",
      "ecfa254f845f647473d3cb140da9e87606cb33066c447b87bc2666dde3fbb739" );
    ( "A.4 #3 (jabberwock key)",
      "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dcc806d3f9e4c0a",
      "000000000000000000000002",
      "ae8078856f2f76f952a918f7c4e12912ab9207e65d37ec701a2c80003e235b59" );
  ]

let test_poly_key_table () =
  List.iter
    (fun (name, key_hex, nonce_hex, expected) ->
      let key = hex key_hex and nonce = hex nonce_hex in
      check_hex (name ^ " [fast]") expected (Aead.poly_key ~key ~nonce);
      check_hex (name ^ " [ref]") expected (ref_poly_key ~key ~nonce))
    poly_key_vectors

(* Seed-construction AEAD seal, composed from the retained oracle pieces
   exactly the way the seed [Aead] did it (concat-based mac_data), so the
   appendix vectors pin both implementations. *)
let ref_seal ~key ~nonce ~aad pt =
  let ct = Chacha20_ref.encrypt ~counter:1 ~key ~nonce pt in
  let pad16 n =
    match n mod 16 with 0 -> Bytes.empty | r -> Bytes.make (16 - r) '\000'
  in
  let lens = Bytes.create 16 in
  Bytes_util.store_le64 lens 0 (Bytes.length aad);
  Bytes_util.store_le64 lens 8 (Bytes.length ct);
  let mac_data =
    Bytes_util.concat
      [ aad; pad16 (Bytes.length aad); ct; pad16 (Bytes.length ct); lens ]
  in
  let tag = Poly1305_ref.mac ~key:(ref_poly_key ~key ~nonce) mac_data in
  Bytes_util.concat [ ct; tag ]

(* A.5-direction AEAD vector.  The RFC prints A.5 as a decryption test
   whose plaintext is the "Internet-Drafts are draft documents..."
   boilerplate; this table pins the ct||tag our implementation produces
   for those A.5 inputs (key/nonce/aad from the RFC, reconstructed
   plaintext), cross-checked fast vs seed oracle.  RFC-printed AEAD
   bytes are anchored by the §2.8.2 vector in [test_aead_vector]. *)
let id_text =
  "Internet-Drafts are draft documents valid for a maximum of six \
   months and may be updated, replaced, or obsoleted by other documents \
   at any time. It is inappropriate to use Internet-Drafts as reference \
   material or to cite them other than as \xe2\x80\x9cwork in \
   progress.\xe2\x80\x9d"

let aead_table_vectors =
  [
    ( "A.5-style (id text, 263 B)",
      "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dcc806d3f9e4c0a",
      "000000000102030405060708", "f33388860000000000004e91",
      Bytes.of_string id_text,
      "55ef6433364c948c5459cb46d856dbc4eb30484d818f339277b8bab37e55ea63\
       f0874f6be668df3a873f43f519dbc6c687bc2ac6d2a3f2b4cee9981108844fe6\
       0dde17d3342c7b4c8583486696a176fca78554115bfefd4a7a1047182195a4f1\
       bc565502e704227be451f3fb044d674c5af2981f17c76983594d9a9da179b755\
       fb14cac1d8024f1e327a78fe80bcaa55d6e698c7f3f56cd6d525a5f7221f82e6\
       ca13b599c0dd3b1d83567c09d229aadf5505eebffd1ddac3e7466ae494300eb9\
       53198568eff0736ff60748eb77a1556f42239b2f98f9ba041ea755283dd7d07a\
       dfe94a818dd9b1df81c2ed491a2328a81c47f9a5e2b5acaefc9ec9032155b546\
       3f5d9374b22c5616d8fc227caee0efc47de62d1984852e" );
  ]

let test_aead_table () =
  List.iter
    (fun (name, key_hex, nonce_hex, aad_hex, pt, expected) ->
      let key = hex key_hex and nonce = hex nonce_hex and aad = hex aad_hex in
      let sealed = Aead.seal ~key ~nonce ~aad pt in
      check_hex (name ^ " [fast]") expected sealed;
      check_hex (name ^ " [ref]") expected (ref_seal ~key ~nonce ~aad pt);
      match Aead.open_ ~key ~nonce ~aad sealed with
      | Some got ->
          Alcotest.(check bool) (name ^ " roundtrip") true (Bytes.equal got pt)
      | None -> Alcotest.fail (name ^ ": open failed"))
    aead_table_vectors

(* §2.8.2 against the seed-composed oracle too (the fast path is pinned
   in [test_aead_vector]). *)
let test_aead_ref_282 () =
  let key = hex "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f" in
  let nonce = hex "070000004041424344454647" in
  let aad = hex "50515253c0c1c2c3c4c5c6c7" in
  check_hex "rfc8439 2.8.2 [ref]"
    "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
     3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
     92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
     3ff4def08e4b7a9de576d26586cec64b61161ae10b594f09e26a7e902ecbd0600691"
    (ref_seal ~key ~nonce ~aad (Bytes.of_string sunscreen))

(* Drbg output pinned byte-for-byte: [generate] now draws keystream
   straight into the result (no over-allocated block buffer + sub), and
   these vectors prove the stream did not move. *)
let test_drbg_pinned () =
  let rng = Drbg.of_string "drbg-pin" in
  check_hex "drbg draw 1 (64 B)"
    "35a2a86b47d595f9fc154d35ddcf277d3b913ffa72b189903d0e82bb9eb5d5d3\
     4f039518228057c7ac55530d1a130b34eeb8c3f05ff455e131c0dae6e660f13b"
    (Drbg.generate rng 64);
  check_hex "drbg draw 2 (100 B, rolled nonce)"
    "a03f65f7837aa1dfe29a7817a16410b12b1fba217e9347586c22926d29dd72d4\
     246caa6b6c8fc4c03655ee4aa7f51b70b3ad609e97bac9076e1c99fc098c4370\
     72079fa4df31c797153dda36cb8feb1e9cf9ac91a6d34fc2f0422c214df79a9f\
     2cf082ce"
    (Drbg.generate rng 100);
  check_hex "drbg fresh seed (32 B)"
    "f9d8a275c4566de3de29b95dec68d64bc41f18dae060f2813975a92d9a77cb95"
    (Drbg.generate (Drbg.of_string "seed") 32)

(* ------------------------------------------------------------------ *)
(* X25519 (RFC 7748)                                                   *)
(* ------------------------------------------------------------------ *)

let test_x25519_vectors () =
  let v1 =
    Curve25519.scalarmult
      ~scalar:(hex "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
      ~point:(hex "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
  in
  check_hex "rfc7748 vector 1"
    "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552" v1;
  let v2 =
    Curve25519.scalarmult
      ~scalar:(hex "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")
      ~point:(hex "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493")
  in
  check_hex "rfc7748 vector 2"
    "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957" v2

let test_x25519_dh () =
  let a_sk = hex "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a" in
  let b_sk = hex "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb" in
  let a_pk = Curve25519.scalarmult_base a_sk in
  let b_pk = Curve25519.scalarmult_base b_sk in
  check_hex "alice pk"
    "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a" a_pk;
  check_hex "bob pk"
    "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f" b_pk;
  let s1 = Curve25519.shared ~secret:a_sk ~public:b_pk in
  let s2 = Curve25519.shared ~secret:b_sk ~public:a_pk in
  check_hex "shared secret"
    "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742" s1;
  check_hex "dh commutes" (Bytes_util.to_hex s1) s2

let test_x25519_iterated () =
  (* RFC 7748 §5.2 iteration test, 1000 rounds. *)
  let k = ref (hex "0900000000000000000000000000000000000000000000000000000000000000") in
  let u = ref !k in
  for i = 1 to 1000 do
    let r = Curve25519.scalarmult ~scalar:!k ~point:!u in
    u := !k;
    k := r;
    if i = 1 then
      check_hex "after 1 iteration"
        "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079" !k
  done;
  check_hex "after 1000 iterations"
    "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51" !k

let words_per_call n f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The field kernels allocate nothing, and a scalar multiplication only
   its field elements and a few small values, counted in elements of
   [fe_words] words each (80 bytes: a header and eleven words): 4 in
   [Fe25519.ladder] itself and 10 in [Fe25519.comb].  A whole ladder
   operation makes 13 (its fraction's two, the unpacked point, the
   ladder's four, the inversion's five and [pack]'s one) and a comb
   operation 22 (its fraction's two, the point's four, the comb's ten,
   the inversion's five and [pack]'s one), beside the clamped scalar
   and the encoding (6 words each), the operation's constructor (3
   words for [Ladder] and [Keyed], 2 for [Base]) and the comb's point
   record (5).  A word boxed in an untagged kernel — [reduce10] called
   out of line, or a local that escapes — shows here before it shows in
   round times. *)
let fe_words = 12.

let test_x25519_allocation () =
  let rng = Drbg.of_string "alloc" in
  let fe () = Fe25519.unpack (Drbg.generate rng 32) in
  let a = fe () and b = fe () and o = Fe25519.create () in
  Alcotest.(check (float 0.)) "one field element's minor words" fe_words
    (words_per_call 1000 (fun () ->
         ignore (Sys.opaque_identity (Fe25519.create ()))));
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.)) (name ^ " minor words per call") 0.
        (words_per_call 1000 f))
    [
      ("mul", fun () -> Fe25519.mul o a b);
      ("square", fun () -> Fe25519.square o a);
      ("mul_small", fun () -> Fe25519.mul_small o a 121665);
      ("add", fun () -> Fe25519.add o a b);
      ("sub", fun () -> Fe25519.sub o a b);
      ("cswap", fun () -> Fe25519.cswap o a 1);
    ];
  let sk, _ = Drbg.keypair ~rng () and _, pk = Drbg.keypair ~rng () in
  (* The ladder alone, with every kernel inlined into its loop: only its
     scratch. *)
  let z = Curve25519.clamp sk and x = Fe25519.unpack pk in
  let x2 = Fe25519.create () and z2 = Fe25519.create () in
  Alcotest.(check (float 0.)) "ladder minor words per call" (4. *. fe_words)
    (words_per_call 20 (fun () -> Fe25519.ladder z x ~x2 ~z2));
  (* The comb loop alone, likewise. *)
  let base = Edwards25519.(table_of_point (base_point ())) in
  let keyed =
    Edwards25519.table_of_point
      (Option.get (Edwards25519.of_montgomery_u pk))
  in
  let cx = Fe25519.create () and cy = Fe25519.create () in
  let cz = Fe25519.create () and ct = Fe25519.create () in
  Alcotest.(check (float 0.)) "comb loop minor words per call"
    (10. *. fe_words)
    (words_per_call 20 (fun () ->
         Fe25519.comb (base :> int array) z ~x:cx ~y:cy ~z:cz ~t:ct));
  (* Each allocates the same for every scalar: a fixed and a random one,
     and the comb's extreme signed radix-16 digits.  Below the top digit
     they lie in -8..7, so +8 occurs only on top: every digit 0 (k = 0),
     every digit +7 (0x77..77), and every digit -8 but a top +8
     (nibbles 8, 7, .., 7). *)
  let random = Drbg.generate rng 32 in
  Bytes_util.set_u8 random 31 (Bytes_util.get_u8 random 31 land 0x7f);
  let sevens = Bytes.make 32 '\x77' in
  let minus_eights = Bytes.make 32 '\x77' in
  Bytes_util.set_u8 minus_eights 0 0x78;
  let scalars =
    [
      ("a fixed scalar", z);
      ("a random scalar", random);
      ("digits all 0", Bytes.make 32 '\000');
      ("digits all +7", sevens);
      ("digits all -8, top +8", minus_eights);
    ]
  in
  let same_for_every name run classes =
    let words =
      List.map (fun (_, k) -> words_per_call 20 (fun () -> run k)) classes
    in
    List.iter2
      (fun (what, _) w ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s minor words for %s" name what)
          (List.hd words) w)
      classes words
  in
  List.iter
    (fun (name, run) -> same_for_every name run scalars)
    [
      ("ladder", fun k -> Fe25519.ladder k x ~x2 ~z2);
      ("base comb", fun k -> ignore (Edwards25519.scalarmult_base k));
      ("keyed comb", fun k -> ignore (Edwards25519.comb keyed k));
    ];
  (* A batch inversion allocates the same whether or not an element is
     zero (0 itself, or p, which reduces to it). *)
  let randoms = Array.init 8 (fun _ -> fe ()) in
  let with_zero = Array.map Fe25519.copy randoms in
  with_zero.(2) <- Fe25519.zero ();
  with_zero.(5) <-
    Fe25519.unpack
      (hex "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  let batch = Fe25519.create_array 8 in
  same_for_every "batch_invert"
    (fun src ->
      Array.iteri (fun i v -> Fe25519.blit ~src:v ~dst:batch.(i)) src;
      Fe25519.batch_invert batch)
    [ ("no zero element", randoms); ("two zero elements", with_zero) ];
  List.iter
    (fun (name, elements, others, f) ->
      Alcotest.(check (float 0.))
        (name ^ " minor words per call")
        ((elements *. fe_words) +. others)
        (words_per_call 20 f))
    [
      ( "scalarmult",
        13.,
        15.,
        fun () -> ignore (Curve25519.scalarmult ~scalar:sk ~point:pk) );
      ( "scalarmult_base",
        22.,
        19.,
        fun () -> ignore (Curve25519.scalarmult_base sk) );
      ( "shared_static",
        22.,
        20.,
        fun () -> ignore (Curve25519.shared_static ~secret:sk ~public:pk) );
    ]

(* The ChaCha20 core's sixteen state refs stay unboxed only while no
   closure captures them: a block allocates nothing, and a 1 KiB XOR
   only its 16-word scratch array (17 words with the header). *)
let test_chacha20_allocation () =
  let key = Bytes.make 32 'k'
  and nonce = Bytes.make Chacha20.nonce_len 'n' in
  let st = Chacha20.init_state ~key ~nonce ~counter:1 in
  let ws = Array.make 16 0 in
  Alcotest.(check (float 0.)) "block_words minor words per call" 0.
    (words_per_call 1000 (fun () -> Chacha20.block_words st 1 ws));
  let src = Bytes.make 1024 's' and dst = Bytes.create 1024 in
  let w =
    words_per_call 1000 (fun () ->
        Chacha20.xor_with_state st ~counter:1 ~src ~src_off:0 ~dst ~dst_off:0
          ~len:1024)
  in
  if w > 17. then
    Alcotest.failf
      "xor_with_state (1 KiB) allocates %.1f minor words per call, over 17" w

(* The symmetric kernels' locals stay unboxed only while they reach
   nothing but primitives: a SHA-256 compression (one aligned 64-byte
   feed) and a Poly1305 block (one aligned 16-byte feed) allocate
   nothing.  A [Box.derive] allocates its HMAC states, pad blocks and
   output: 178 minor words, against 732 before the kernels' rewrite. *)
let test_symmetric_allocation () =
  let block = Bytes.init 64 Char.chr in
  let sha = Sha256.init () in
  Alcotest.(check (float 0.)) "sha256 compression minor words per call" 0.
    (words_per_call 1000 (fun () -> Sha256.feed sha block));
  let poly = Poly1305.init (Bytes.make 32 '\xff') in
  Alcotest.(check (float 0.)) "poly1305 block minor words per call" 0.
    (words_per_call 1000 (fun () -> Poly1305.feed_sub poly block ~off:0 ~len:16));
  let raw = Bytes.make Curve25519.key_len 'r' in
  let w = words_per_call 1000 (fun () -> ignore (Box.derive raw)) in
  if w > 180. then
    Alcotest.failf "Box.derive allocates %.1f minor words per call, over 180" w

(* ------------------------------------------------------------------ *)
(* DRBG                                                                *)
(* ------------------------------------------------------------------ *)

let test_drbg_deterministic () =
  let a = Drbg.of_string "seed" and b = Drbg.of_string "seed" in
  check_hex "same seed, same stream"
    (Bytes_util.to_hex (Drbg.generate a 64))
    (Drbg.generate b 64);
  let c = Drbg.of_string "other" in
  Alcotest.(check bool) "different seed differs" false
    (Bytes.equal (Drbg.generate a 64) (Drbg.generate c 64))

let test_drbg_stream_disjoint () =
  let a = Drbg.of_string "seed" in
  let x = Drbg.generate a 32 and y = Drbg.generate a 32 in
  Alcotest.(check bool) "consecutive draws differ" false (Bytes.equal x y)

let test_drbg_uniform_bounds () =
  let rng = Drbg.of_string "uniform" in
  for _ = 1 to 1000 do
    let v = Drbg.uniform ~rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "uniform out of range"
  done;
  let f = Drbg.float_unit ~rng () in
  Alcotest.(check bool) "float in [0,1)" true (f >= 0. && f < 1.)

(* ------------------------------------------------------------------ *)
(* Box                                                                 *)
(* ------------------------------------------------------------------ *)

let test_box_roundtrip () =
  let rng = Drbg.of_string "box" in
  let a_sk, a_pk = Drbg.keypair ~rng () in
  let b_sk, b_pk = Drbg.keypair ~rng () in
  let k1 = Box.derive (Curve25519.shared ~secret:a_sk ~public:b_pk) in
  let k2 = Box.derive (Curve25519.shared ~secret:b_sk ~public:a_pk) in
  check_hex "derived key symmetric" (Bytes_util.to_hex k1) k2;
  let nonce = Aead.nonce_of ~domain:1 ~counter:5 in
  let sealed = Aead.seal ~key:k1 ~nonce (Bytes.of_string "hi bob") in
  (match Aead.open_ ~key:k2 ~nonce sealed with
  | Some pt -> Alcotest.(check string) "box roundtrip" "hi bob" (Bytes.to_string pt)
  | None -> Alcotest.fail "box open failed")

let test_sealed_box () =
  let rng = Drbg.of_string "sealed" in
  let sk, pk = Drbg.keypair ~rng () in
  let sealed = Box.seal_anonymous ~rng ~recipient_pk:pk (Bytes.of_string "invite") in
  Alcotest.(check int) "anonymous overhead" (6 + Box.anonymous_overhead)
    (Bytes.length sealed);
  (match Box.open_anonymous ~recipient_sk:sk ~recipient_pk:pk sealed with
  | Some pt -> Alcotest.(check string) "sealed roundtrip" "invite" (Bytes.to_string pt)
  | None -> Alcotest.fail "sealed open failed");
  (* The wrong recipient's trial decryption must fail. *)
  let sk2, pk2 = Drbg.keypair ~rng () in
  Alcotest.(check bool) "wrong recipient fails" true
    (Box.open_anonymous ~recipient_sk:sk2 ~recipient_pk:pk2 sealed = None)

(* An 80-byte paper invitation = 32-byte payload + sealed-box overhead. *)
let test_invitation_size () =
  Alcotest.(check int) "invitation is 80 bytes" 80 (32 + Box.anonymous_overhead)

(* ------------------------------------------------------------------ *)
(* Bytes_util                                                          *)
(* ------------------------------------------------------------------ *)

let test_hex_roundtrip () =
  let b = Drbg.generate (Drbg.of_string "hex") 57 in
  check_hex "roundtrip" (Bytes_util.to_hex b) (Bytes_util.of_hex (Bytes_util.to_hex b));
  Alcotest.check_raises "odd length" (Invalid_argument "Bytes_util.of_hex: odd length")
    (fun () -> ignore (Bytes_util.of_hex "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Bytes_util.of_hex: bad digit")
    (fun () -> ignore (Bytes_util.of_hex "zz"))

let test_endian () =
  let b = Bytes.create 8 in
  Bytes_util.store_le64 b 0 0x1122334455667788;
  Alcotest.(check int) "le64 roundtrip" 0x1122334455667788 (Bytes_util.le64 b 0);
  Alcotest.(check int) "le32" 0x55667788 (Bytes_util.le32 b 0)

let test_ct_equal () =
  Alcotest.(check bool) "equal" true
    (Bytes_util.ct_equal (Bytes.of_string "abc") (Bytes.of_string "abc"));
  Alcotest.(check bool) "unequal" false
    (Bytes_util.ct_equal (Bytes.of_string "abc") (Bytes.of_string "abd"));
  Alcotest.(check bool) "length mismatch" false
    (Bytes_util.ct_equal (Bytes.of_string "ab") (Bytes.of_string "abc"))

let test_pad_to () =
  let p = Bytes_util.pad_to 5 (Bytes.of_string "ab") in
  Alcotest.(check string) "padded" "ab\000\000\000" (Bytes.to_string p);
  Alcotest.check_raises "too long" (Invalid_argument "Bytes_util.pad_to: too long")
    (fun () -> ignore (Bytes_util.pad_to 1 (Bytes.of_string "ab")))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  let bytes_gen n = Gen.map Bytes.of_string (Gen.string_size (Gen.return n)) in
  let arb_msg = make ~print:(fun b -> Bytes_util.to_hex b)
      (Gen.map Bytes.of_string Gen.(string_size (int_bound 300))) in
  [
    Test.make ~name:"aead seal/open roundtrip" ~count:100 arb_msg (fun msg ->
        let key = Bytes.make 32 '\x42' in
        let nonce = Aead.nonce_of ~domain:0 ~counter:1 in
        match Aead.open_ ~key ~nonce (Aead.seal ~key ~nonce msg) with
        | Some pt -> Bytes.equal pt msg
        | None -> false);
    Test.make ~name:"aead: wrong key never opens" ~count:50 arb_msg (fun msg ->
        let key = Bytes.make 32 '\x42' and key' = Bytes.make 32 '\x43' in
        let nonce = Aead.nonce_of ~domain:0 ~counter:1 in
        Aead.open_ ~key:key' ~nonce (Aead.seal ~key ~nonce msg) = None);
    Test.make ~name:"chacha20 encrypt is an involution" ~count:100 arb_msg
      (fun msg ->
        let key = Bytes.make 32 '\x24' in
        let nonce = Bytes.make 12 '\x05' in
        Bytes.equal msg (Chacha20.encrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce msg)));
    Test.make ~name:"x25519 dh commutes" ~count:10
      (make (Gen.pair (bytes_gen 32) (bytes_gen 32)))
      (fun (a, b) ->
        let a_pk = Curve25519.scalarmult_base a in
        let b_pk = Curve25519.scalarmult_base b in
        Bytes.equal
          (Curve25519.shared ~secret:a ~public:b_pk)
          (Curve25519.shared ~secret:b ~public:a_pk));
    Test.make ~name:"sealed box roundtrip" ~count:25 arb_msg (fun msg ->
        let rng = Drbg.of_string "prop-sealed" in
        let sk, pk = Drbg.keypair ~rng () in
        match
          Box.open_anonymous ~recipient_sk:sk ~recipient_pk:pk
            (Box.seal_anonymous ~rng ~recipient_pk:pk msg)
        with
        | Some pt -> Bytes.equal pt msg
        | None -> false);
    Test.make ~name:"hex roundtrip" ~count:100 arb_msg (fun b ->
        Bytes.equal b (Bytes_util.of_hex (Bytes_util.to_hex b)));
    Test.make ~name:"hmac differs on tampered data" ~count:50
      (make (Gen.map Bytes.of_string Gen.(string_size (int_range 1 100))))
      (fun data ->
        let key = Bytes.of_string "k" in
        let tampered = Bytes.copy data in
        Bytes.set tampered 0 (Char.chr (Char.code (Bytes.get data 0) lxor 1));
        not (Bytes.equal (Hmac.sha256 ~key data) (Hmac.sha256 ~key tampered)));
  ]

let suite =
  let tc = Alcotest.test_case in
  ( "crypto",
    [
      tc "sha256 vectors" `Quick test_sha256_vectors;
      tc "sha256 incremental" `Quick test_sha256_incremental;
      tc "sha256 get nondestructive" `Quick test_sha256_get_nondestructive;
      tc "hmac vectors" `Quick test_hmac_vectors;
      tc "hmac verify" `Quick test_hmac_verify;
      tc "hkdf vectors" `Quick test_hkdf_vectors;
      tc "chacha20 block" `Quick test_chacha20_block;
      tc "chacha20 encrypt" `Quick test_chacha20_encrypt;
      tc "poly1305 vector" `Quick test_poly1305_vector;
      tc "poly1305 incremental" `Quick test_poly1305_incremental;
      tc "poly1305 wrap edge" `Quick test_poly1305_edge;
      tc "aead vector + tamper sweep" `Quick test_aead_vector;
      tc "aead wrong aad" `Quick test_aead_wrong_aad;
      tc "chacha20 block table (A.1, fast+ref)" `Quick
        test_chacha20_block_table;
      tc "chacha20 encrypt table (A.2, fast+ref)" `Quick
        test_chacha20_encrypt_table;
      tc "poly1305 table (A.3)" `Quick test_poly1305_table;
      tc "poly key table (2.6.2 + A.4, fast+ref)" `Quick
        test_poly_key_table;
      tc "aead table (A.5-style, fast+ref)" `Quick test_aead_table;
      tc "aead 2.8.2 against ref oracle" `Quick test_aead_ref_282;
      tc "drbg pinned output" `Quick test_drbg_pinned;
      tc "x25519 vectors" `Quick test_x25519_vectors;
      tc "x25519 diffie-hellman" `Quick test_x25519_dh;
      tc "x25519 iterated (1000)" `Slow test_x25519_iterated;
      tc "drbg deterministic" `Quick test_drbg_deterministic;
      tc "drbg stream disjoint" `Quick test_drbg_stream_disjoint;
      tc "drbg uniform bounds" `Quick test_drbg_uniform_bounds;
      tc "box roundtrip" `Quick test_box_roundtrip;
      tc "sealed box" `Quick test_sealed_box;
      tc "invitation size" `Quick test_invitation_size;
      tc "hex roundtrip" `Quick test_hex_roundtrip;
      tc "endian helpers" `Quick test_endian;
      tc "constant-time equal" `Quick test_ct_equal;
      tc "pad_to" `Quick test_pad_to;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props )

(* ------------------------------------------------------------------ *)
(* Fe25519 field algebra                                               *)
(* ------------------------------------------------------------------ *)

(* Direct algebraic properties of the shared field arithmetic that both
   X25519 and Ed25519 stand on. *)
let fe_suite =
  let open QCheck in
  let arb_fe =
    make
      ~print:(fun a -> Bytes_util.to_hex (Fe25519.pack a))
      (Gen.map
         (fun s -> Fe25519.unpack (Bytes.of_string s))
         Gen.(string_size (return 32)))
  in
  let eq = Fe25519.equal in
  [
    QCheck.Test.make ~name:"fe: mul commutes" ~count:100 (pair arb_fe arb_fe)
      (fun (a, b) ->
        let x = Fe25519.create () and y = Fe25519.create () in
        Fe25519.mul x a b;
        Fe25519.mul y b a;
        eq x y);
    QCheck.Test.make ~name:"fe: mul associates" ~count:100
      (triple arb_fe arb_fe arb_fe) (fun (a, b, c) ->
        let ab = Fe25519.create ()
        and bc = Fe25519.create ()
        and l = Fe25519.create ()
        and r = Fe25519.create () in
        Fe25519.mul ab a b;
        Fe25519.mul l ab c;
        Fe25519.mul bc b c;
        Fe25519.mul r a bc;
        eq l r);
    QCheck.Test.make ~name:"fe: distributivity" ~count:100
      (triple arb_fe arb_fe arb_fe) (fun (a, b, c) ->
        let bc = Fe25519.create ()
        and l = Fe25519.create ()
        and ab = Fe25519.create ()
        and ac = Fe25519.create ()
        and r = Fe25519.create () in
        Fe25519.add bc b c;
        Fe25519.mul l a bc;
        Fe25519.mul ab a b;
        Fe25519.mul ac a c;
        Fe25519.add r ab ac;
        Fe25519.carry r;
        eq l r);
    QCheck.Test.make ~name:"fe: a * a^-1 = 1 (a <> 0)" ~count:50 arb_fe
      (fun a ->
        let zero = Fe25519.zero () in
        if eq a zero then true
        else begin
          let inv = Fe25519.create () and prod = Fe25519.create () in
          Fe25519.invert inv a;
          Fe25519.mul prod a inv;
          eq prod (Fe25519.one ())
        end);
    QCheck.Test.make ~name:"fe: pack/unpack roundtrip is canonical"
      ~count:100 arb_fe (fun a ->
        let packed = Fe25519.pack a in
        Bytes.equal packed (Fe25519.pack (Fe25519.unpack packed)));
    QCheck.Test.make ~name:"fe: square = mul self" ~count:100 arb_fe
      (fun a ->
        let s = Fe25519.create () and m = Fe25519.create () in
        Fe25519.square s a;
        Fe25519.mul m a a;
        eq s m);
  ]
  |> List.map (QCheck_alcotest.to_alcotest ~long:false)

(* Appended after the field properties so the earlier cases keep their
   positions in the suite. *)
let suite =
  ( fst suite,
    snd suite @ fe_suite
    @ [
        Alcotest.test_case "x25519 kernels allocate nothing" `Quick
          test_x25519_allocation;
        Alcotest.test_case "chacha20 core allocates nothing" `Quick
          test_chacha20_allocation;
        Alcotest.test_case "sha256 and poly1305 blocks allocate nothing"
          `Quick test_symmetric_allocation;
      ] )
