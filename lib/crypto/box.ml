(* Public-key authenticated encryption in the NaCl "box" style:
   X25519 -> HKDF -> ChaCha20-Poly1305.  Vuvuzela uses:

   - [seal]/[open_] between a client's per-layer ephemeral key and a
     server's long-term key (onion layers), and between conversation
     partners' keys (message payloads);
   - [seal_anonymous]/[open_anonymous] for dialing invitations, where the
     recipient must not learn anything before trial decryption succeeds
     and invitations from different senders must be indistinguishable. *)

let overhead = Aead.tag_len
let anonymous_overhead = Curve25519.key_len + Aead.tag_len

(* Shared symmetric key for the (secret, public) pair.  Both directions of
   a DH pair derive the same key, so callers must domain-separate nonces
   (Vuvuzela derives direction from public-key order; see Conversation). *)
let derive raw =
  Hkdf.derive ~ikm:raw ~info:(Bytes.of_string "vuvuzela-box-v1") Aead.key_len

let precompute ~secret ~public = derive (Curve25519.shared ~secret ~public)

let seal ~key ~nonce ?aad pt = Aead.seal ~key ~nonce ?aad pt
let open_ ~key ~nonce ?aad ct = Aead.open_ ~key ~nonce ?aad ct

let seal_into ~key ~nonce ?aad ~src ~src_off ~len ~dst ~dst_off () =
  Aead.seal_into ~key ~nonce ?aad ~src ~src_off ~len ~dst ~dst_off ()

let open_into ~key ~nonce ?aad ~src ~src_off ~len ~dst ~dst_off () =
  Aead.open_into ~key ~nonce ?aad ~src ~src_off ~len ~dst ~dst_off ()

(* Sealed (anonymous) box: a fresh ephemeral keypair per message; the
   ephemeral public key rides in front of the ciphertext.  The nonce is
   derived from both public keys so it is unique per ephemeral key. *)
let anon_nonce ~epk ~pk =
  Bytes.sub (Sha256.digest_list [ epk; pk ]) 0 Aead.nonce_len

let seal_anonymous ?rng ~recipient_pk pt =
  let esk, epk = Drbg.keypair ?rng () in
  let key = precompute ~secret:esk ~public:recipient_pk in
  let nonce = anon_nonce ~epk ~pk:recipient_pk in
  let len = Bytes.length pt in
  let out = Bytes.create (Curve25519.key_len + len + Aead.tag_len) in
  Bytes.blit epk 0 out 0 Curve25519.key_len;
  Aead.seal_into ~key ~nonce ~src:pt ~src_off:0 ~len ~dst:out
    ~dst_off:Curve25519.key_len ();
  out

let open_anonymous ~recipient_sk ~recipient_pk sealed =
  let n = Bytes.length sealed in
  if n < anonymous_overhead then None
  else begin
    let epk = Bytes.sub sealed 0 Curve25519.key_len in
    let key = precompute ~secret:recipient_sk ~public:epk in
    let nonce = anon_nonce ~epk ~pk:recipient_pk in
    let pt = Bytes.create (n - anonymous_overhead) in
    if
      Aead.open_into ~key ~nonce ~src:sealed ~src_off:Curve25519.key_len
        ~len:(n - Curve25519.key_len) ~dst:pt ~dst_off:0 ()
    then Some pt
    else None
  end
