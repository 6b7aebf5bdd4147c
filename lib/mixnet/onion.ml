(* Onion encryption (Algorithm 1, step 2; Algorithm 2, steps 1 and 4).

   A request for a chain of n servers is encrypted in n layers, innermost
   first.  Layer i carries a fresh ephemeral public key pk_i and the AEAD
   sealing of layer i+1 under s_i = DH(sk_i, server_i's key):

       e_i = pk_i || Seal(s_i, nonce_req(round), e_{i+1})

   Every layer uses a fresh ephemeral keypair — reusing a key across
   rounds would itself be an observable variable (§7).  Servers remember
   s_i per request slot and seal results on the way back:

       e'_i = Seal(s_i, nonce_rep(round), e'_{i+1})

   Request layers add [layer_overhead] = 48 bytes each (32-byte key +
   16-byte tag); reply layers add [reply_overhead] = 16 bytes each.  All
   onions for the same chain length and payload size are therefore the
   same length — a precondition for indistinguishability. *)

open Vuvuzela_crypto

let layer_overhead = Curve25519.key_len + Aead.tag_len
let reply_overhead = Aead.tag_len

(* Nonce domains: request and reply layers must not collide under the
   same layer secret. *)
let request_nonce ~round = Aead.nonce_of ~domain:0x5571 ~counter:round
let reply_nonce ~round = Aead.nonce_of ~domain:0x5572 ~counter:round

type wrapped = {
  onion : bytes;  (** what the client sends to the first server *)
  secrets : bytes array;
      (** per-layer symmetric secrets, index 0 = first server; needed to
          unwrap the reply *)
}

(* Wrap each (eph_sks, payload) under its pre-drawn ephemeral secrets,
   [eph_sks.(i)] for layer i (raw 32-byte strings; clamped by
   Curve25519).  No RNG, so batches of wraps can fan out across domains
   while the coordinating domain keeps the single RNG stream.  Each
   layer costs two comb operations: the fresh key on the base point's
   table, the DH on the server key's (Curve25519.shared_static's memo,
   the one piece of shared state, safe across domains).  All 2n per
   onion, for every onion, run as one batch, for one field inversion. *)
let wrap_many ~server_pks ~round specs =
  let pks = Array.of_list server_pks in
  let n = Array.length pks in
  if n = 0 then invalid_arg "Onion.wrap: empty chain";
  Array.iter
    (fun (eph_sks, _) ->
      if Array.length eph_sks <> n then
        invalid_arg "Onion.wrap_with: one ephemeral secret per layer")
    specs;
  (* For onion k's layer i at j = 2(nk + i), dh.(j) is the layer's
     public key and dh.(j + 1) its shared point. *)
  let dh =
    Curve25519.batch
      (Array.init
         (2 * n * Array.length specs)
         (fun j ->
           let layer = j / 2 mod n in
           let secret = (fst specs.(j / (2 * n))).(layer) in
           if j mod 2 = 0 then Curve25519.Base secret
           else Curve25519.Keyed { secret; public = pks.(layer) }))
  in
  let nonce = request_nonce ~round in
  Array.mapi
    (fun k (_, payload) ->
      let secrets = Array.make n Bytes.empty in
      (* Innermost layer (the last server's) first. *)
      let onion = ref payload in
      for i = n - 1 downto 0 do
        let j = 2 * ((n * k) + i) in
        let s = Box.derive dh.(j + 1) in
        secrets.(i) <- s;
        let inner = !onion in
        let ilen = Bytes.length inner in
        let out = Bytes.create (Curve25519.key_len + ilen + Aead.tag_len) in
        Bytes.blit dh.(j) 0 out 0 Curve25519.key_len;
        Aead.seal_into ~key:s ~nonce ~src:inner ~src_off:0 ~len:ilen ~dst:out
          ~dst_off:Curve25519.key_len ();
        onion := out
      done;
      { onion = !onion; secrets })
    specs

let wrap_with ~eph_sks ~server_pks ~round payload =
  (wrap_many ~server_pks ~round [| (eph_sks, payload) |]).(0)

(* Draw the per-layer ephemeral secrets for one onion.  Innermost layer
   first: that is the order the original recursive wrap consumed the
   DRBG in, so seeded runs stay byte-for-byte reproducible. *)
let draw_eph_sks ?rng ~chain_len () =
  let eph_sks = Array.make chain_len Bytes.empty in
  for i = chain_len - 1 downto 0 do
    eph_sks.(i) <- Drbg.bytes ?rng Curve25519.scalar_len
  done;
  eph_sks

(* Wrap [payload] for the servers whose public keys are [server_pks]
   (first server first).  Encryption happens in reverse order. *)
let wrap ?rng ~server_pks ~round payload =
  let n = List.length server_pks in
  if n = 0 then invalid_arg "Onion.wrap: empty chain";
  wrap_with ~eph_sks:(draw_eph_sks ?rng ~chain_len:n ()) ~server_pks ~round
    payload

(* Server side: strip one layer from each onion, returning the inner
   onion and the layer secret to seal the reply with.  The DHs of every
   onion long enough to carry a layer run as one batch.  An all-zero DH
   result means a low-order ephemeral key, and is rejected as RFC 7748
   §6.1 recommends, in constant time. *)
let peel_many ~server_sk ~round onions =
  let sized =
    Array.of_seq
      (Seq.filter
         (fun onion -> Bytes.length onion >= layer_overhead)
         (Array.to_seq onions))
  in
  let raw =
    Curve25519.batch
      (Array.map
         (fun onion ->
           Curve25519.Ladder
             { scalar = server_sk; point = Bytes.sub onion 0 Curve25519.key_len })
         sized)
  in
  let nonce = request_nonce ~round and next = ref 0 in
  Array.map
    (fun onion ->
      let n = Bytes.length onion in
      if n < layer_overhead then None
      else begin
        let dh = raw.(!next) in
        incr next;
        if Curve25519.is_zero dh then None
        else begin
          let s = Box.derive dh in
          let inner = Bytes.create (n - layer_overhead) in
          if
            Aead.open_into ~key:s ~nonce ~src:onion
              ~src_off:Curve25519.key_len ~len:(n - Curve25519.key_len)
              ~dst:inner ~dst_off:0 ()
          then Some (inner, s)
          else None
        end
      end)
    onions

let peel ~server_sk ~round onion =
  (peel_many ~server_sk ~round [| onion |]).(0)

let seal_reply ~secret ~round reply =
  let len = Bytes.length reply in
  let out = Bytes.create (len + reply_overhead) in
  Aead.seal_into ~key:secret
    ~nonce:(reply_nonce ~round)
    ~src:reply ~src_off:0 ~len ~dst:out ~dst_off:0 ();
  out

(* Client side: remove all reply layers (first server's layer is
   outermost). *)
let unwrap_reply ~secrets ~round reply =
  let nonce = reply_nonce ~round in
  let rec go i acc =
    if i >= Array.length secrets then Some acc
    else
      match Aead.open_ ~key:secrets.(i) ~nonce acc with
      | Some inner -> go (i + 1) inner
      | None -> None
  in
  go 0 reply

let request_size ~chain_len ~payload_len =
  payload_len + (chain_len * layer_overhead)
