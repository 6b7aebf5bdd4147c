(* Public-key authenticated encryption in the NaCl "box" style:
   X25519 -> HKDF -> ChaCha20-Poly1305.  Vuvuzela uses:

   - [derive], the key that [Aead] seals with, between a client's
     per-layer ephemeral key and a server's long-term key (onion
     layers), and between conversation partners' keys (message
     payloads);
   - [seal_anonymous]/[open_anonymous] for dialing invitations, where the
     recipient must not learn anything before trial decryption succeeds
     and invitations from different senders must be indistinguishable.
     A noise invitation, which nobody opens, is no sealed box: see
     Dialing. *)

let anonymous_overhead = Curve25519.key_len + Aead.tag_len

(* Shared symmetric key for the (secret, public) pair.  Both directions of
   a DH pair derive the same key, so callers must domain-separate nonces
   (Vuvuzela derives direction from public-key order; see Conversation). *)
let derive raw =
  Hkdf.derive ~ikm:raw ~info:(Bytes.of_string "vuvuzela-box-v1") Aead.key_len

(* Sealed (anonymous) box: a fresh ephemeral keypair per message; the
   ephemeral public key rides in front of the ciphertext.  The nonce is
   derived from both public keys so it is unique per ephemeral key. *)
let anon_nonce ~epk ~pk =
  Bytes.sub (Sha256.digest_list [ epk; pk ]) 0 Aead.nonce_len

(* The ephemeral secret is drawn as [Drbg.keypair] draws it, so the
   stream and the bytes are those of a keypair-then-seal.  Its public
   key (a base comb) and the DH toward the recipient (a ladder) run as
   one batch, for one field inversion. *)
let seal_anonymous ?rng ~recipient_pk pt =
  let esk = Drbg.bytes ?rng Curve25519.scalar_len in
  let dh =
    Curve25519.batch
      [|
        Curve25519.Base esk;
        Curve25519.Ladder { scalar = esk; point = recipient_pk };
      |]
  in
  let epk = dh.(0) and key = derive dh.(1) in
  let nonce = anon_nonce ~epk ~pk:recipient_pk in
  let len = Bytes.length pt in
  let out = Bytes.create (Curve25519.key_len + len + Aead.tag_len) in
  Bytes.blit epk 0 out 0 Curve25519.key_len;
  Aead.seal_into ~key ~nonce ~src:pt ~src_off:0 ~len ~dst:out
    ~dst_off:Curve25519.key_len ();
  out

(* A low-order ephemeral key gives the all-zero DH whatever the
   recipient's secret, so anyone could seal to it: rejected, as
   RFC 7748 §6.1 recommends and as a peel does.  The DHs of a drop's
   boxes run as one batch: one field inversion for all of them. *)
let open_anonymous_many ~recipient_sk ~recipient_pk boxes =
  let epks =
    Array.map
      (fun b ->
        if Bytes.length b < anonymous_overhead then None
        else Some (Bytes.sub b 0 Curve25519.key_len))
      boxes
  in
  let ladder point = Curve25519.Ladder { scalar = recipient_sk; point } in
  let dhs =
    Curve25519.batch
      (Array.of_list
         (List.filter_map (Option.map ladder) (Array.to_list epks)))
  in
  (* [Array.mapi] visits the boxes in order, so [next] walks [dhs]. *)
  let next = ref 0 in
  Array.mapi
    (fun i sealed ->
      match epks.(i) with
      | None -> None
      | Some epk ->
          let dh = dhs.(!next) in
          incr next;
          if Curve25519.is_zero dh then None
          else begin
            let key = derive dh and nonce = anon_nonce ~epk ~pk:recipient_pk in
            let n = Bytes.length sealed in
            let pt = Bytes.create (n - anonymous_overhead) in
            if
              Aead.open_into ~key ~nonce ~src:sealed
                ~src_off:Curve25519.key_len ~len:(n - Curve25519.key_len)
                ~dst:pt ~dst_off:0 ()
            then Some pt
            else None
          end)
    boxes

let open_anonymous ~recipient_sk ~recipient_pk sealed =
  (open_anonymous_many ~recipient_sk ~recipient_pk [| sealed |]).(0)
