(* ChaCha20-Poly1305 boundary tests: empty AAD, empty plaintext, and
   lengths crossing the 64-byte block boundary (63/64/65), round-tripped
   through the raw AEAD, through Box (X25519 + HKDF key agreement over
   the rewritten field), and through full onion seal/open. *)

open Vuvuzela_crypto
open Vuvuzela_mixnet

(* The block-boundary plaintext lengths; 0 also covers the empty
   plaintext requirement. *)
let boundary_lens = [ 0; 1; 63; 64; 65; 128; 257 ]

let gen_material rng =
  let key = Drbg.generate rng Aead.key_len in
  let nonce = Drbg.generate rng Aead.nonce_len in
  let aad = Drbg.generate rng 24 in
  let big = Drbg.generate rng 257 in
  (key, nonce, aad, big)

(* HMAC-SHA256 and HKDF from their definitions (RFC 2104, RFC 5869),
   hashing every pad block on every call: the oracle for the pad states
   [Hmac.key] and [Hkdf]'s default salt keep. *)
let hmac_ref ~key data =
  let pad c =
    let block = Bytes.make 64 c in
    Bytes_util.xor_into ~src:key ~dst:block (Bytes.length key);
    block
  in
  Sha256.digest_list [ pad '\x5c'; Sha256.digest_list [ pad '\x36'; data ] ]

let hkdf_ref ~ikm ~info len =
  let prk = hmac_ref ~key:(Bytes.make 32 '\000') ikm in
  let rec blocks t i acc =
    if Bytes.length acc >= len then Bytes.sub acc 0 len
    else
      let t =
        hmac_ref ~key:prk (Bytes_util.concat [ t; info; Bytes.make 1 (Char.chr i) ])
      in
      blocks t (i + 1) (Bytes.cat acc t)
  in
  blocks Bytes.empty 1 Bytes.empty

let run () =
  Prop.suite "chacha20-poly1305 boundaries (aead / box / onion)";
  (* Every derive without a salt resumes from the default salt's pad
     states, hashed once at start-up: the same bytes as the definition,
     as an explicit zero salt, and, for Box.derive, as its HKDF. *)
  Prop.check ~name:"hkdf default-salt pads" ~count:200
    (fun rng ->
      let ikm = Drbg.generate rng (Drbg.uniform ~rng 100) in
      let info = Drbg.generate rng (Drbg.uniform ~rng 40) in
      (ikm, info, 1 + Drbg.uniform ~rng 100))
    (fun (ikm, info, len) ->
      let want = Bytes_util.to_hex (hkdf_ref ~ikm ~info len) in
      Prop.check_hex ~what:"derive vs definition" want
        (Bytes_util.to_hex (Hkdf.derive ~ikm ~info len));
      Prop.check_hex ~what:"derive vs explicit zero salt" want
        (Bytes_util.to_hex
           (Hkdf.derive ~salt:(Bytes.make 32 '\000') ~ikm ~info len));
      Prop.check_hex ~what:"Box.derive vs definition"
        (Bytes_util.to_hex
           (hkdf_ref ~ikm ~info:(Bytes.of_string "vuvuzela-box-v1")
              Aead.key_len))
        (Bytes_util.to_hex (Box.derive ikm)));
  Prop.check ~name:"aead roundtrip at block boundaries" ~count:100
    gen_material (fun (key, nonce, aad, big) ->
      List.iter
        (fun len ->
          let pt = Bytes.sub big 0 len in
          List.iter
            (fun aad ->
              let ct = Aead.seal ~key ~nonce ~aad pt in
              Prop.require
                (Bytes.length ct = len + Aead.tag_len)
                "len %d: ciphertext length %d, want %d" len (Bytes.length ct)
                (len + Aead.tag_len);
              match Aead.open_ ~key ~nonce ~aad ct with
              | Some pt' ->
                  Prop.require (Bytes.equal pt pt')
                    "len %d (aad %d): roundtrip mismatch" len
                    (Bytes.length aad)
              | None ->
                  Prop.fail "len %d (aad %d): authentic message rejected" len
                    (Bytes.length aad))
            [ Bytes.empty; aad ])
        boundary_lens);
  Prop.check ~name:"aead tamper/aad-swap rejection" ~count:100 gen_material
    (fun (key, nonce, aad, big) ->
      List.iter
        (fun len ->
          let pt = Bytes.sub big 0 len in
          let ct = Aead.seal ~key ~nonce ~aad pt in
          (* flip one bit — in the tag when the ciphertext is empty *)
          let pos = if len = 0 then Bytes.length ct - 1 else 0 in
          let bad = Bytes.copy ct in
          Bytes_util.set_u8 bad pos (Bytes_util.get_u8 bad pos lxor 1);
          Prop.require
            (Aead.open_ ~key ~nonce ~aad bad = None)
            "len %d: tampered ciphertext accepted" len;
          Prop.require
            (Aead.open_ ~key ~nonce ~aad:Bytes.empty ct = None)
            "len %d: AAD stripped yet accepted" len)
        [ 0; 63; 64; 65 ]);
  Prop.check ~name:"seal_into = seal / open_into = open_" ~count:100
    gen_material (fun (key, nonce, aad, big) ->
      List.iter
        (fun len ->
          let pt = Bytes.sub big 0 len in
          let sealed = Aead.seal ~key ~nonce ~aad pt in
          (* seal_into at an offset into a larger buffer must produce
             the exact wrapper bytes *)
          let dst = Bytes.make (7 + len + Aead.tag_len + 4) '\xab' in
          Aead.seal_into ~key ~nonce ~aad ~src:big ~src_off:0 ~len ~dst
            ~dst_off:7 ();
          Prop.require
            (Bytes.equal sealed (Bytes.sub dst 7 (len + Aead.tag_len)))
            "len %d: seal_into differs from seal" len;
          (* open_into from that offset must recover the plaintext *)
          let out = Bytes.make (5 + len) '\x00' in
          Prop.require
            (Aead.open_into ~key ~nonce ~aad ~src:dst ~src_off:7
               ~len:(len + Aead.tag_len) ~dst:out ~dst_off:5 ())
            "len %d: open_into rejected authentic bytes" len;
          Prop.require
            (Bytes.equal pt (Bytes.sub out 5 len))
            "len %d: open_into plaintext differs from open_" len;
          (* in-place seal: plaintext becomes ct||tag in one buffer *)
          let buf = Bytes.create (len + Aead.tag_len) in
          Bytes.blit big 0 buf 0 len;
          Aead.seal_into ~key ~nonce ~aad ~src:buf ~src_off:0 ~len ~dst:buf
            ~dst_off:0 ();
          Prop.require (Bytes.equal sealed buf)
            "len %d: in-place seal_into differs from seal" len;
          (* ... and in-place open restores it *)
          Prop.require
            (Aead.open_into ~key ~nonce ~aad ~src:buf ~src_off:0
               ~len:(len + Aead.tag_len) ~dst:buf ~dst_off:0 ())
            "len %d: in-place open_into rejected" len;
          Prop.require
            (Bytes.equal pt (Bytes.sub buf 0 len))
            "len %d: in-place open_into plaintext mismatch" len)
        boundary_lens);
  (* The AEAD pins its ChaCha20 block counters at 0 (poly key) and 1
     (payload), so a payload long enough would wrap the 32-bit counter
     only after 256 GiB; the wraparound contract is instead pinned
     differentially here at the stream layer the AEAD sits on. *)
  Prop.vector ~name:"aead stream at 32-bit counter wraparound" (fun () ->
      let key = Bytes.init 32 (fun i -> Char.chr (0x80 lor i)) in
      let nonce = Bytes.init 12 (fun i -> Char.chr (i * 3)) in
      let pt = Bytes.init 200 (fun i -> Char.chr (i land 0xff)) in
      let fast = Chacha20.encrypt ~counter:0xffffffff ~key ~nonce pt in
      let oracle = Chacha20_ref.encrypt ~counter:0xffffffff ~key ~nonce pt in
      Prop.check_hex ~what:"wraparound ciphertext"
        (Bytes_util.to_hex oracle) (Bytes_util.to_hex fast));
  Prop.check ~name:"box roundtrip at block boundaries" ~count:50
    (fun rng ->
      let ska, pka = Drbg.keypair ~rng () in
      let skb, pkb = Drbg.keypair ~rng () in
      let aad = Drbg.generate rng 16 in
      let big = Drbg.generate rng 257 in
      (ska, pka, skb, pkb, aad, big))
    (fun (ska, pka, skb, pkb, aad, big) ->
      (* Both DH directions must agree on the derived key: this is
         the first consumer of the 51-bit shared-secret path. *)
      let kab = Box.derive (Curve25519.shared ~secret:ska ~public:pkb) in
      let kba = Box.derive (Curve25519.shared ~secret:skb ~public:pka) in
      Prop.check_hex ~what:"derived key symmetry"
        (Bytes_util.to_hex kab) (Bytes_util.to_hex kba);
      List.iteri
        (fun i len ->
          let pt = Bytes.sub big 0 len in
          let nonce = Aead.nonce_of ~domain:0x0b0b ~counter:i in
          List.iter
            (fun aad ->
              let ct = Aead.seal ~key:kab ~nonce ~aad pt in
              match Aead.open_ ~key:kba ~nonce ~aad ct with
              | Some pt' ->
                  Prop.require (Bytes.equal pt pt')
                    "box len %d: roundtrip mismatch" len
              | None -> Prop.fail "box len %d: authentic message rejected" len)
            [ Bytes.empty; aad ])
        boundary_lens);
  Prop.check ~name:"sealed box (invitations) boundaries" ~count:50
    (fun rng ->
      let sk, pk = Drbg.keypair ~rng () in
      let big = Drbg.generate rng 128 in
      (rng, sk, pk, big))
    (fun (rng, sk, pk, big) ->
      List.iter
        (fun len ->
          let pt = Bytes.sub big 0 len in
          let ct = Box.seal_anonymous ~rng ~recipient_pk:pk pt in
          Prop.require
            (Bytes.length ct = len + Box.anonymous_overhead)
            "sealed box len %d: overhead %d, want %d" len
            (Bytes.length ct - len)
            Box.anonymous_overhead;
          match Box.open_anonymous ~recipient_sk:sk ~recipient_pk:pk ct with
          | Some pt' ->
              Prop.require (Bytes.equal pt pt')
                "sealed box len %d: roundtrip mismatch" len
          | None -> Prop.fail "sealed box len %d: rejected" len)
        [ 0; 1; 63; 64; 65 ]);
  (* The batched builders a server's noise runs on the pool.  k noise
     invitations built as one batch are the k built one by one from the
     same draws.  Each is the first 32 bytes (the ephemeral key) of the
     sealed box the same stream would have given, then that box's drawn
     plaintext and recipient key as filler, and the stream after it is
     the box's: the draws are the box's, call for call.  k onions
     wrapped as one batch are the k wrapped one by one.  A box whose
     ephemeral key has low order opens for nobody, even sealed under
     the all-zero DH's key. *)
  Prop.check ~name:"batched noise invitations and onion wraps" ~count:8
    (fun rng ->
      let seed = Drbg.generate rng 16 in
      let recipient = Drbg.keypair ~rng () in
      let servers = Array.init 3 (fun _ -> snd (Drbg.keypair ~rng ())) in
      let chain_len = 1 + Drbg.uniform ~rng 3 in
      (seed, recipient, servers, chain_len))
    (fun (seed, (sk, pk), servers, chain_len) ->
      let server_pks = Array.to_list (Array.sub servers 0 chain_len) in
      for k = 0 to 8 do
        let kind = if k mod 2 = 0 then Vuvuzela.Dialing.Plain else Certified in
        let len = Vuvuzela.Dialing.invitation_len kind in
        (* One stream for the batch's draws, a copy for the invitations
           built one by one, a copy for the sealed boxes. *)
        let draws = Drbg.create ~seed
        and alone = Drbg.create ~seed
        and boxes = Drbg.create ~seed in
        let batched =
          Vuvuzela.Dialing.noise_invitations
            (Array.init k (fun _ -> Vuvuzela.Dialing.draw ~rng:draws ~kind ()))
        in
        Array.iteri
          (fun i inv ->
            let one =
              Vuvuzela.Dialing.noise_invitations
                [| Vuvuzela.Dialing.draw ~rng:alone ~kind () |]
            in
            Prop.check_hex
              ~what:(Printf.sprintf "invitation %d of %d, batched vs alone" i k)
              (Bytes_util.to_hex one.(0)) (Bytes_util.to_hex inv);
            let pt = Drbg.bytes ~rng:boxes (len - Box.anonymous_overhead) in
            let rk = Drbg.bytes ~rng:boxes Curve25519.key_len in
            let box = Box.seal_anonymous ~rng:boxes ~recipient_pk:rk pt in
            Prop.check_hex
              ~what:(Printf.sprintf "invitation %d of %d vs sealed box" i k)
              (Bytes_util.to_hex
                 (Bytes_util.concat
                    [
                      Bytes.sub box 0 Curve25519.key_len;
                      pt;
                      Bytes.sub rk 0 Aead.tag_len;
                    ]))
              (Bytes_util.to_hex inv);
            Prop.require
              (Box.open_anonymous ~recipient_sk:sk ~recipient_pk:pk inv = None)
              "invitation %d of %d opened" i k)
          batched;
        Prop.check_hex
          ~what:(Printf.sprintf "stream after %d invitations vs boxes" k)
          (Bytes_util.to_hex (Drbg.bytes ~rng:boxes 16))
          (Bytes_util.to_hex (Drbg.bytes ~rng:draws 16));
        List.iter
          (fun point ->
            let epk = Bytes_util.of_hex point in
            let nonce =
              Bytes.sub (Sha256.digest_list [ epk; pk ]) 0 Aead.nonce_len
            in
            let ct =
              Aead.seal
                ~key:(Box.derive (Bytes.make Curve25519.key_len '\000'))
                ~nonce (Bytes.make k 'x')
            in
            Prop.require
              (Box.open_anonymous ~recipient_sk:sk ~recipient_pk:pk
                 (Bytes.cat epk ct)
              = None)
              "low-order ephemeral key %s opened" point)
          Prop_x25519.low_order_points;
        let round = 7 + k in
        let specs =
          Array.init k (fun i ->
              ( Onion.draw_eph_sks ~rng:draws ~chain_len (),
                Bytes.make (i * 11) (Char.chr (97 + i)) ))
        in
        let wrapped = Onion.wrap_many ~server_pks ~round specs in
        Prop.require (Array.length wrapped = k) "wrap_many of %d gave %d" k
          (Array.length wrapped);
        Array.iteri
          (fun i (eph_sks, payload) ->
            let one = Onion.wrap_with ~eph_sks ~server_pks ~round payload in
            Prop.check_hex
              ~what:(Printf.sprintf "onion %d of %d, batched vs alone" i k)
              (Bytes_util.to_hex one.Onion.onion)
              (Bytes_util.to_hex wrapped.(i).Onion.onion);
            Array.iteri
              (fun layer s ->
                Prop.check_hex
                  ~what:
                    (Printf.sprintf "onion %d of %d, layer %d secret" i k layer)
                  (Bytes_util.to_hex s)
                  (Bytes_util.to_hex wrapped.(i).Onion.secrets.(layer)))
              one.Onion.secrets)
          specs
      done);
  (* Full onion path over a 3-server chain: wrap, peel at each hop,
     seal the reply back up, unwrap at the client. *)
  Prop.check ~name:"onion wrap/peel/reply at boundaries" ~count:25
    (fun rng ->
      let servers = Array.init 3 (fun _ -> Drbg.keypair ~rng ()) in
      let big = Drbg.generate rng 257 in
      (rng, servers, big))
    (fun (rng, servers, big) ->
      let server_pks = Array.to_list (Array.map snd servers) in
      List.iter
        (fun len ->
          let payload = Bytes.sub big 0 len in
          let round = 41 + len in
          let { Onion.onion; secrets } =
            Onion.wrap ~rng ~server_pks ~round payload
          in
          Prop.require
            (Bytes.length onion
            = Onion.request_size ~chain_len:3 ~payload_len:len)
            "onion len %d: request size %d" len (Bytes.length onion);
          (* peel through the chain *)
          let inner = ref onion in
          let layer_secrets = ref [] in
          Array.iteri
            (fun hop (sk, _) ->
              match Onion.peel ~server_sk:sk ~round !inner with
              | Some (next, secret) ->
                  inner := next;
                  layer_secrets := (hop, secret) :: !layer_secrets
              | None -> Prop.fail "onion len %d: hop %d failed to peel" len hop)
            servers;
          Prop.require
            (Bytes.equal !inner payload)
            "onion len %d: innermost payload mismatch" len;
          (* each stored secret must match what peel recovered *)
          List.iter
            (fun (hop, secret) ->
              Prop.require
                (Bytes.equal secret secrets.(hop))
                "onion len %d: hop %d secret mismatch" len hop)
            !layer_secrets;
          (* reply path: last server seals first, then back down the chain *)
          let reply = ref !inner in
          for hop = 2 downto 0 do
            reply := Onion.seal_reply ~secret:secrets.(hop) ~round !reply
          done;
          (match Onion.unwrap_reply ~secrets ~round !reply with
          | Some pt ->
              Prop.require (Bytes.equal pt payload)
                "onion len %d: reply roundtrip mismatch" len
          | None -> Prop.fail "onion len %d: reply rejected" len);
          (* a peel under the wrong round must fail closed *)
          Prop.require
            (Onion.peel ~server_sk:(fst servers.(0)) ~round:(round + 1) onion
            = None)
            "onion len %d: wrong-round peel accepted" len)
        [ 0; 1; 63; 64; 65 ])
