(* Differential suite gating the untagged symmetric kernels: SHA-256,
   HMAC and HKDF against the retained tagged [Sha256_ref], Poly1305
   against [Poly1305_ref], and AEAD seals against the seed construction
   over [Chacha20_ref] and [Poly1305_ref].  Inputs are fed in random
   splits (so the buffered and bulk paths meet at every offset), at the
   SHA-256 padding boundaries, finalized mid-stream, and at Poly1305's
   limb bound: r at its clamp maximum over all-0xff blocks. *)

open Vuvuzela_crypto

let hex = Bytes_util.to_hex

(* Random chunk lengths summing to [len]: 0 to 130 bytes each, so a
   chunk can end anywhere in a 16- or 64-byte block. *)
let splits rng len =
  let rec go acc rem =
    if rem = 0 then List.rev acc
    else
      let n = min rem (Drbg.uniform ~rng 131) in
      go (n :: acc) (rem - n)
  in
  go [] len

let gen_split_input ~max rng =
  let data = Drbg.generate rng (Drbg.uniform ~rng (max + 1)) in
  (data, splits rng (Bytes.length data))

(* Feed [data] chunk by chunk through [feed_sub], at each chunk's offset. *)
let feed_splits feed_sub data chunks =
  ignore
    (List.fold_left
       (fun off len ->
         feed_sub data ~off ~len;
         off + len)
       0 chunks)

(* HMAC and HKDF from their definitions (RFC 2104, RFC 5869) over the
   reference hash, hashing every pad on every call. *)
let hmac_ref ~key data =
  let key = if Bytes.length key > 64 then Sha256_ref.digest key else key in
  let pad c =
    let block = Bytes.make 64 c in
    Bytes_util.xor_into ~src:key ~dst:block (Bytes.length key);
    block
  in
  Sha256_ref.digest_list
    [ pad '\x5c'; Sha256_ref.digest_list [ pad '\x36'; data ] ]

let hkdf_ref ?(salt = Bytes.make 32 '\000') ~ikm ~info len =
  let prk = hmac_ref ~key:salt ikm in
  let rec blocks t i acc =
    if Bytes.length acc >= len then Bytes.sub acc 0 len
    else
      let t =
        hmac_ref ~key:prk (Bytes_util.concat [ t; info; Bytes.make 1 (Char.chr i) ])
      in
      blocks t (i + 1) (Bytes.cat acc t)
  in
  blocks Bytes.empty 1 Bytes.empty

(* The seed AEAD: ChaCha20 from block 1, Poly1305 keyed by block 0 over
   aad ‖ pad16 ‖ ct ‖ pad16 ‖ le64 lengths, all from the oracles. *)
let seal_ref ~key ~nonce ~aad pt =
  let ct = Chacha20_ref.encrypt ~counter:1 ~key ~nonce pt in
  let pad16 n = Bytes.make ((16 - (n mod 16)) mod 16) '\000' in
  let lens = Bytes.create 16 in
  Bytes_util.store_le64 lens 0 (Bytes.length aad);
  Bytes_util.store_le64 lens 8 (Bytes.length ct);
  let poly_key = Bytes.sub (Chacha20_ref.block ~key ~nonce ~counter:0) 0 32 in
  let tag =
    Poly1305_ref.mac ~key:poly_key
      (Bytes_util.concat
         [ aad; pad16 (Bytes.length aad); ct; pad16 (Bytes.length ct); lens ])
  in
  Bytes.cat ct tag

(* A Poly1305 key whose r is the clamp maximum (every bit the clamp
   keeps is set), with a random s. *)
let max_r_key rng = Bytes.cat (Bytes.make 16 '\xff') (Drbg.generate rng 16)

let run () =
  Prop.suite "sha256 / hmac / hkdf / poly1305 / aead vs tagged oracles";
  Prop.check ~name:"sha256 = ref, 0-1000 bytes in random splits" ~count:300
    (gen_split_input ~max:1000) (fun (data, chunks) ->
      let t = Sha256.init () in
      feed_splits (Sha256.feed_sub t) data chunks;
      Prop.check_hex
        ~what:(Printf.sprintf "digest of %d bytes" (Bytes.length data))
        (hex (Sha256_ref.digest data))
        (hex (Sha256.get t)));
  Prop.check ~name:"sha256 padding boundaries" ~count:40
    (fun rng -> Drbg.generate rng 120)
    (fun data ->
      List.iter
        (fun len ->
          let d = Bytes.sub data 0 len in
          let out = Bytes.make 40 '\x55' in
          let t = Sha256.init () in
          Sha256.feed t d;
          Sha256.get_into t out ~off:5;
          Prop.check_hex
            ~what:(Printf.sprintf "get_into at %d bytes" len)
            (hex (Sha256_ref.digest d))
            (hex (Bytes.sub out 5 32));
          Prop.require
            (Bytes.sub_string out 0 5 = "\x55\x55\x55\x55\x55"
            && Bytes.sub_string out 37 3 = "\x55\x55\x55")
            "get_into wrote outside its 32 bytes (len %d)" len;
          Prop.check_hex
            ~what:(Printf.sprintf "digest at %d bytes" len)
            (hex (Sha256_ref.digest d))
            (hex (Sha256.digest d)))
        [ 0; 55; 56; 63; 64; 119; 120 ]);
  Prop.check ~name:"sha256 get mid-stream" ~count:200
    (fun rng ->
      let a = Drbg.generate rng (Drbg.uniform ~rng 200) in
      (a, Drbg.generate rng (Drbg.uniform ~rng 200)))
    (fun (a, b) ->
      let t = Sha256.init () and r = Sha256_ref.init () in
      Sha256.feed t a;
      Sha256_ref.feed r a;
      let mid = Sha256.get t in
      Prop.check_hex ~what:"get after the prefix" (hex (Sha256_ref.get r))
        (hex mid);
      Prop.check_hex ~what:"second get" (hex mid) (hex (Sha256.get t));
      let c = Sha256.copy t in
      Sha256.feed t b;
      Sha256_ref.feed r b;
      Prop.check_hex ~what:"get after resuming" (hex (Sha256_ref.get r))
        (hex (Sha256.get t));
      Prop.check_hex ~what:"copy taken mid-stream" (hex mid)
        (hex (Sha256.get c)));
  Prop.check ~name:"hmac = ref, keys of 0-200 bytes" ~count:300
    (fun rng ->
      let key = Drbg.generate rng (Drbg.uniform ~rng 201) in
      (key, Drbg.generate rng (Drbg.uniform ~rng 300)))
    (fun (key, data) ->
      let want = hex (hmac_ref ~key data) in
      Prop.check_hex
        ~what:(Printf.sprintf "hmac key %d data %d" (Bytes.length key)
                 (Bytes.length data))
        want
        (hex (Hmac.sha256 ~key data));
      let k = Hmac.key key in
      Prop.check_hex ~what:"mac under a reused key" want (hex (Hmac.mac k data));
      Prop.check_hex ~what:"mac under a reused key, again" want
        (hex (Hmac.mac k data)));
  Prop.check ~name:"hkdf and Box.derive = ref" ~count:200
    (fun rng ->
      let ikm = Drbg.generate rng (Drbg.uniform ~rng 100) in
      let salt =
        if Drbg.uniform ~rng 2 = 0 then None
        else Some (Drbg.generate rng (Drbg.uniform ~rng 100))
      in
      let info = Drbg.generate rng (Drbg.uniform ~rng 40) in
      (ikm, salt, info, Drbg.uniform ~rng 200))
    (fun (ikm, salt, info, len) ->
      Prop.check_hex
        ~what:(Printf.sprintf "derive %d bytes" len)
        (hex (hkdf_ref ?salt ~ikm ~info len))
        (hex (Hkdf.derive ?salt ~ikm ~info len));
      Prop.check_hex ~what:"Box.derive"
        (hex
           (hkdf_ref ~ikm ~info:(Bytes.of_string "vuvuzela-box-v1") Aead.key_len))
        (hex (Box.derive ikm)));
  Prop.check ~name:"poly1305 = ref, 0-1000 bytes in random splits" ~count:300
    (fun rng -> (Drbg.generate rng 32, gen_split_input ~max:1000 rng))
    (fun (key, (data, chunks)) ->
      let t = Poly1305.init key in
      feed_splits (Poly1305.feed_sub t) data chunks;
      Prop.check_hex
        ~what:(Printf.sprintf "tag of %d bytes" (Bytes.length data))
        (hex (Poly1305_ref.mac ~key data))
        (hex (Poly1305.finish t)));
  Prop.check ~name:"poly1305 at the limb bound" ~count:60
    (fun rng ->
      let data =
        if Drbg.uniform ~rng 2 = 0 then Bytes.make 1000 '\xff'
        else Drbg.generate rng 1000
      in
      (max_r_key rng, Bytes.sub data 0 (Drbg.uniform ~rng 1001)))
    (fun (key, data) ->
      Prop.check_hex
        ~what:(Printf.sprintf "max-r tag of %d bytes" (Bytes.length data))
        (hex (Poly1305_ref.mac ~key data))
        (hex (Poly1305.mac ~key data)));
  Prop.vector ~name:"poly1305 all-ones key and blocks" (fun () ->
      let key = Bytes.make 32 '\xff' in
      List.iter
        (fun len ->
          let data = Bytes.make len '\xff' in
          Prop.check_hex
            ~what:(Printf.sprintf "all-0xff tag of %d bytes" len)
            (hex (Poly1305_ref.mac ~key data))
            (hex (Poly1305.mac ~key data)))
        [ 0; 1; 15; 16; 17; 32; 255; 256; 4096 ]);
  Prop.check ~name:"aead seal = seed construction over the oracles"
    ~count:200
    (fun rng ->
      let key = Drbg.generate rng Aead.key_len in
      let nonce = Drbg.generate rng Aead.nonce_len in
      let aad = Drbg.generate rng (Drbg.uniform ~rng 41) in
      (key, nonce, aad, Drbg.generate rng (Drbg.uniform ~rng 600)))
    (fun (key, nonce, aad, pt) ->
      let sealed = Aead.seal ~key ~nonce ~aad pt in
      Prop.check_hex
        ~what:
          (Printf.sprintf "seal aad %d pt %d" (Bytes.length aad)
             (Bytes.length pt))
        (hex (seal_ref ~key ~nonce ~aad pt))
        (hex sealed);
      Prop.require
        (Aead.open_ ~key ~nonce ~aad sealed = Some pt)
        "open of the seal fails (pt %d)" (Bytes.length pt))
