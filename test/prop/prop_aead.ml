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

let run () =
  Prop.suite "chacha20-poly1305 boundaries (aead / box / onion)";
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
      (* Both DH directions must agree on the precomputed key: this is
         the first consumer of the 51-bit shared-secret path. *)
      let kab = Box.precompute ~secret:ska ~public:pkb in
      let kba = Box.precompute ~secret:skb ~public:pka in
      Prop.check_hex ~what:"precompute symmetry"
        (Bytes_util.to_hex kab) (Bytes_util.to_hex kba);
      List.iteri
        (fun i len ->
          let pt = Bytes.sub big 0 len in
          let nonce = Aead.nonce_of ~domain:0x0b0b ~counter:i in
          List.iter
            (fun aad ->
              let ct = Box.seal ~key:kab ~nonce ~aad pt in
              match Box.open_ ~key:kba ~nonce ~aad ct with
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
  (* The batched builders a server's noise runs on the pool: k boxes
     sealed as one batch are the k boxes sealed one by one under the
     same drawn secrets, k onions wrapped as one batch are the k wrapped
     one by one, and a low-order recipient key in the middle of a batch
     seals as it does alone and spoils no other box. *)
  Prop.check ~name:"batched sealed boxes and onion wraps" ~count:8
    (fun rng ->
      let seed = Drbg.generate rng 16 in
      let recipients = Array.init 8 (fun _ -> Drbg.keypair ~rng ()) in
      let servers = Array.init 3 (fun _ -> snd (Drbg.keypair ~rng ())) in
      let chain_len = 1 + Drbg.uniform ~rng 3 in
      let low_order =
        Bytes_util.of_hex
          (List.nth Prop_x25519.low_order_points
             (Drbg.uniform ~rng (List.length Prop_x25519.low_order_points)))
      in
      (seed, recipients, servers, chain_len, low_order))
    (fun (seed, recipients, servers, chain_len, low_order) ->
      let server_pks = Array.to_list (Array.sub servers 0 chain_len) in
      for k = 0 to 8 do
        (* One stream for the batch's draws, a copy of it for the boxes
           sealed one by one: each [seal_anonymous] draws its secret. *)
        let draws = Drbg.create ~seed and alone = Drbg.create ~seed in
        let boxes =
          Array.init k (fun i ->
              let pk = snd recipients.(i) in
              let pt = Bytes.make (i * 9) (Char.chr (65 + i)) in
              (Drbg.bytes ~rng:draws 32, pk, pt))
        in
        let batched = Box.seal_anonymous_many boxes in
        Array.iteri
          (fun i (esk, pk, pt) ->
            let one = Box.seal_anonymous ~rng:alone ~recipient_pk:pk pt in
            Prop.check_hex
              ~what:(Printf.sprintf "box %d of %d, batched vs alone" i k)
              (Bytes_util.to_hex one)
              (Bytes_util.to_hex batched.(i));
            Prop.check_hex
              ~what:(Printf.sprintf "box %d of %d, ephemeral key" i k)
              (Bytes_util.to_hex (Curve25519.scalarmult_base esk))
              (Bytes_util.to_hex (Bytes.sub batched.(i) 0 Curve25519.key_len));
            match
              Box.open_anonymous ~recipient_sk:(fst recipients.(i))
                ~recipient_pk:pk batched.(i)
            with
            | Some pt' ->
                Prop.require (Bytes.equal pt pt')
                  "box %d of %d: roundtrip mismatch" i k
            | None -> Prop.fail "box %d of %d: rejected" i k)
          boxes;
        if k > 0 then begin
          let mid = k / 2 in
          let esk, _, pt = boxes.(mid) in
          let spoiled = Array.copy boxes in
          spoiled.(mid) <- (esk, low_order, pt);
          let got = Box.seal_anonymous_many spoiled in
          let alone = Box.seal_anonymous_many [| spoiled.(mid) |] in
          Array.iteri
            (fun i _ ->
              let want = if i = mid then alone.(0) else batched.(i) in
              Prop.check_hex
                ~what:
                  (Printf.sprintf "box %d of %d, low-order key at %d" i k mid)
                (Bytes_util.to_hex want) (Bytes_util.to_hex got.(i)))
            spoiled
        end;
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
