(* SHA-512, Ed25519 (RFC 8032), and the §9 certificate extension. *)

open Vuvuzela_crypto
open Vuvuzela

let hex = Bytes_util.of_hex
let check_hex msg expected actual =
  Alcotest.(check string) msg expected (Bytes_util.to_hex actual)

(* ------------------------------------------------------------------ *)
(* SHA-512                                                             *)
(* ------------------------------------------------------------------ *)

let test_sha512_vectors () =
  check_hex "sha512(abc)"
    "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
    (Sha512.digest_string "abc");
  check_hex "sha512(empty)"
    "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
    (Sha512.digest_string "");
  check_hex "sha512(two blocks)"
    "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
    (Sha512.digest_string
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha512_incremental () =
  let data = Bytes.init 777 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let expected = Bytes_util.to_hex (Sha512.digest data) in
  let t = Sha512.init () in
  let pos = ref 0 in
  List.iter
    (fun n ->
      Sha512.feed t (Bytes.sub data !pos n);
      pos := !pos + n)
    [ 1; 100; 27; 128; 129; 300; 92 ];
  assert (!pos = 777);
  check_hex "incremental = one-shot" expected (Sha512.get t)

(* ------------------------------------------------------------------ *)
(* Ed25519 RFC 8032 vectors                                            *)
(* ------------------------------------------------------------------ *)

let rfc8032_case name sk_h pk_h msg_h sig_h () =
  let sk = hex sk_h and msg = hex msg_h in
  check_hex (name ^ " public key") pk_h (Ed25519.public_key sk);
  let signature = Ed25519.sign ~secret:sk msg in
  check_hex (name ^ " signature") sig_h signature;
  Alcotest.(check bool) (name ^ " verifies") true
    (Ed25519.verify ~public:(hex pk_h) ~signature msg)

let test_rfc8032_1 =
  rfc8032_case "test1"
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a" ""
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"

let test_rfc8032_2 =
  rfc8032_case "test2"
    "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"
    "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c" "72"
    "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"

let test_rfc8032_3 =
  rfc8032_case "test3"
    "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7"
    "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
    "af82"
    "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"

let test_ed25519_rejections () =
  let rng = Drbg.of_string "ed-rej" in
  let sk, pk = Ed25519.keypair ~rng () in
  let msg = Bytes.of_string "message" in
  let signature = Ed25519.sign ~secret:sk msg in
  (* Tampered message, signature, and key must all fail. *)
  Alcotest.(check bool) "wrong message" false
    (Ed25519.verify ~public:pk ~signature (Bytes.of_string "other"));
  let bad_sig = Bytes.copy signature in
  Bytes.set bad_sig 5 (Char.chr (Char.code (Bytes.get bad_sig 5) lxor 1));
  Alcotest.(check bool) "tampered signature" false
    (Ed25519.verify ~public:pk ~signature:bad_sig msg);
  let _, pk2 = Ed25519.keypair ~rng () in
  Alcotest.(check bool) "wrong key" false
    (Ed25519.verify ~public:pk2 ~signature msg);
  Alcotest.(check bool) "bad lengths" false
    (Ed25519.verify ~public:(Bytes.make 5 'x') ~signature msg);
  Alcotest.(check bool) "bad sig length" false
    (Ed25519.verify ~public:pk ~signature:(Bytes.make 63 'x') msg)

let test_ed25519_malleability () =
  (* s' = s + L must be rejected (non-canonical S). *)
  let rng = Drbg.of_string "ed-malle" in
  let sk, pk = Ed25519.keypair ~rng () in
  let msg = Bytes.of_string "malleability" in
  let signature = Ed25519.sign ~secret:sk msg in
  let l =
    [|
      0xed; 0xd3; 0xf5; 0x5c; 0x1a; 0x63; 0x12; 0x58; 0xd6; 0x9c; 0xf7;
      0xa2; 0xde; 0xf9; 0xde; 0x14; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
      0; 0; 0; 0x10;
    |]
  in
  let forged = Bytes.copy signature in
  let carry = ref 0 in
  for i = 0 to 31 do
    let v = Bytes_util.get_u8 forged (32 + i) + l.(i) + !carry in
    Bytes_util.set_u8 forged (32 + i) (v land 0xff);
    carry := v lsr 8
  done;
  (* If adding L overflowed 256 bits the forgery is invalid anyway;
     otherwise it must be rejected by the canonical-s check. *)
  if !carry = 0 then
    Alcotest.(check bool) "s+L rejected" false
      (Ed25519.verify ~public:pk ~signature:forged msg)

let test_ed25519_off_curve_key () =
  (* Most 32-byte strings with high y are off the curve; verification
     must fail rather than crash. *)
  let msg = Bytes.of_string "m" in
  let signature = Bytes.make 64 '\000' in
  let bad_pk = hex "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f" in
  Alcotest.(check bool) "off-curve pk" false
    (Ed25519.verify ~public:bad_pk ~signature msg)

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

let test_certificate_roundtrip () =
  let rng = Drbg.of_string "cert" in
  let issuer_sk, issuer_pk = Ed25519.keypair ~rng () in
  let subject = Types.identity_of_seed (Bytes.of_string "cert-subject") in
  let cert =
    Certificate.issue ~issuer_sk ~subject_pk:subject.Types.public
      ~name:"alice@example" ~expires:100
  in
  (match Certificate.decode (Certificate.encode cert) with
  | Ok c ->
      Alcotest.(check bool) "encode/decode" true
        (Bytes.equal c.Certificate.signature cert.Certificate.signature
        && Bytes.equal c.Certificate.subject_pk cert.Certificate.subject_pk
        && c.Certificate.expires = cert.Certificate.expires)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "encoded size" Certificate.encoded_len
    (Bytes.length (Certificate.encode cert));
  let trusted k = Bytes.equal k issuer_pk in
  (match Certificate.verify ~now:50 ~trusted cert with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid cert rejected: %a" Certificate.pp_error e);
  Alcotest.(check bool) "name matches" true
    (Certificate.matches_name cert "alice@example");
  Alcotest.(check bool) "wrong name" false
    (Certificate.matches_name cert "mallory@example")

let test_certificate_rejections () =
  let rng = Drbg.of_string "cert-rej" in
  let issuer_sk, issuer_pk = Ed25519.keypair ~rng () in
  let other_sk, other_pk = Ed25519.keypair ~rng () in
  let subject = Types.identity_of_seed (Bytes.of_string "cert-subject2") in
  let cert =
    Certificate.issue ~issuer_sk ~subject_pk:subject.Types.public ~name:"bob"
      ~expires:10
  in
  let trusted k = Bytes.equal k issuer_pk in
  (* Expired. *)
  (match Certificate.verify ~now:11 ~trusted cert with
  | Error (Certificate.Expired _) -> ()
  | _ -> Alcotest.fail "expired cert accepted");
  (* Untrusted issuer. *)
  (match Certificate.verify ~now:5 ~trusted:(fun _ -> false) cert with
  | Error Certificate.Untrusted_issuer -> ()
  | _ -> Alcotest.fail "untrusted issuer accepted");
  (* Forged: mallory re-signs alice's cert body with her own key but
     claims the original issuer. *)
  let forged =
    let c = Certificate.issue ~issuer_sk:other_sk ~subject_pk:subject.Types.public ~name:"bob" ~expires:10 in
    { c with Certificate.issuer_pk }
  in
  (match Certificate.verify ~now:5 ~trusted forged with
  | Error Certificate.Bad_signature -> ()
  | _ -> Alcotest.fail "forged cert accepted");
  ignore other_pk;
  (* Tampered subject key. *)
  let tampered = { cert with Certificate.subject_pk = Bytes.make 32 'x' } in
  match Certificate.verify ~now:5 ~trusted tampered with
  | Error Certificate.Bad_signature -> ()
  | _ -> Alcotest.fail "tampered cert accepted"

let test_certified_invitation () =
  let rng = Drbg.of_string "cert-inv" in
  let signer_sk, signer_pk = Ed25519.keypair ~rng () in
  let caller = Types.identity_of_seed (Bytes.of_string "caller-id") in
  let callee = Types.identity_of_seed (Bytes.of_string "callee-id") in
  let cert =
    Certificate.self_signed ~signing_sk:signer_sk
      ~conversation_pk:caller.Types.public ~name:"reporter" ~expires:99
  in
  let sealed =
    Certificate.seal_certified ~rng ~caller_pk:caller.Types.public ~cert
      ~recipient_pk:callee.Types.public ()
  in
  Alcotest.(check int) "fixed size" Certificate.certified_invitation_len
    (Bytes.length sealed);
  (match
     Certificate.open_certified ~recipient_sk:callee.Types.secret
       ~recipient_pk:callee.Types.public sealed
   with
  | Some (caller_pk, c) ->
      Alcotest.(check bool) "caller key recovered" true
        (Bytes.equal caller_pk caller.Types.public);
      (match
         Certificate.verify ~now:1
           ~trusted:(fun k -> Bytes.equal k signer_pk)
           c
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cert invalid: %a" Certificate.pp_error e)
  | None -> Alcotest.fail "certified invitation failed to open");
  (* Noise is the same size and opens for nobody. *)
  let noise = Dialing.blob ~rng ~kind:Dialing.Certified () in
  Alcotest.(check int) "noise same size" Certificate.certified_invitation_len
    (Bytes.length noise);
  Alcotest.(check bool) "noise unreadable" true
    (Certificate.open_certified ~recipient_sk:callee.Types.secret
       ~recipient_pk:callee.Types.public noise
    = None);
  (* Wrong recipient cannot open. *)
  let eve = Types.identity_of_seed (Bytes.of_string "eve-id") in
  Alcotest.(check bool) "wrong recipient" true
    (Certificate.open_certified ~recipient_sk:eve.Types.secret
       ~recipient_pk:eve.Types.public sealed
    = None)

let test_cert_subject_mismatch () =
  let rng = Drbg.of_string "cert-mismatch" in
  let signer_sk, _ = Ed25519.keypair ~rng () in
  let caller = Types.identity_of_seed (Bytes.of_string "caller-mm") in
  let cert =
    Certificate.self_signed ~signing_sk:signer_sk
      ~conversation_pk:(Bytes.make 32 'z') ~name:"x" ~expires:1
  in
  Alcotest.check_raises "subject mismatch"
    (Invalid_argument "Certificate.seal_certified: cert does not cover caller")
    (fun () ->
      ignore
        (Certificate.seal_certified ~rng ~caller_pk:caller.Types.public ~cert
           ~recipient_pk:(Bytes.make 32 'r') ()))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"ed25519 sign/verify roundtrip" ~count:8
      (string_of_size (Gen.int_bound 200))
      (fun msg ->
        let rng = Drbg.of_string ("prop-ed-" ^ string_of_int (String.length msg)) in
        let sk, pk = Ed25519.keypair ~rng () in
        let m = Bytes.of_string msg in
        Ed25519.verify ~public:pk ~signature:(Ed25519.sign ~secret:sk m) m);
    Test.make ~name:"certificate roundtrip for any name/expiry" ~count:10
      (pair (string_of_size (Gen.int_bound 40)) (int_bound 1_000_000))
      (fun (name, expires) ->
        let rng = Drbg.of_string "prop-cert" in
        let sk, pk = Ed25519.keypair ~rng () in
        let subject = Drbg.bytes ~rng 32 in
        let cert = Certificate.issue ~issuer_sk:sk ~subject_pk:subject ~name ~expires in
        Certificate.verify ~now:expires ~trusted:(Bytes.equal pk) cert = Ok ()
        && Certificate.matches_name cert name);
  ]

let suite =
  let tc = Alcotest.test_case in
  ( "ed25519",
    [
      tc "sha512 vectors" `Quick test_sha512_vectors;
      tc "sha512 incremental" `Quick test_sha512_incremental;
      tc "rfc8032 test 1" `Quick test_rfc8032_1;
      tc "rfc8032 test 2" `Quick test_rfc8032_2;
      tc "rfc8032 test 3" `Quick test_rfc8032_3;
      tc "rejections" `Quick test_ed25519_rejections;
      tc "s-malleability rejected" `Quick test_ed25519_malleability;
      tc "off-curve key rejected" `Quick test_ed25519_off_curve_key;
      tc "certificate roundtrip" `Quick test_certificate_roundtrip;
      tc "certificate rejections" `Quick test_certificate_rejections;
      tc "certified invitation" `Quick test_certified_invitation;
      tc "cert subject mismatch" `Quick test_cert_subject_mismatch;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props )
