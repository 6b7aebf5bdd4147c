(* Ed25519 signatures (RFC 8032), following TweetNaCl's structure; the
   curve arithmetic is Edwards25519's (its comb computes every base
   multiplication: the public key, R = rB and verification's sB).

   Vuvuzela's core protocols need no signatures, but its PKI story does
   (§2.3 assumes signature schemes; §9 "the caller can supply a
   certificate along with the invitation") — see {!Vuvuzela.Certificate}. *)

let public_key_len = 32
let secret_key_len = 32
let signature_len = 64

(* The group order L = 2^252 + 27742317777372353535851937790883648493,
   as 32 little-endian bytes. *)
let order_l =
  [|
    0xed; 0xd3; 0xf5; 0x5c; 0x1a; 0x63; 0x12; 0x58; 0xd6; 0x9c; 0xf7;
    0xa2; 0xde; 0xf9; 0xde; 0x14; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0; 0; 0x10;
  |]

(* Reduce a 64-byte (or zero-padded) little-endian value modulo L
   (TweetNaCl's modL). *)
let mod_l (x : int array) =
  (* x has 64 entries; result written into the first 32 and returned as
     bytes. *)
  let carry = ref 0 in
  for i = 63 downto 32 do
    carry := 0;
    for j = i - 32 to i - 13 do
      x.(j) <- x.(j) + !carry - (16 * x.(i) * order_l.(j - (i - 32)));
      carry := (x.(j) + 128) asr 8;
      x.(j) <- x.(j) - (!carry lsl 8)
    done;
    x.(i - 12) <- x.(i - 12) + !carry;
    x.(i) <- 0
  done;
  carry := 0;
  for j = 0 to 31 do
    x.(j) <- x.(j) + !carry - ((x.(31) asr 4) * order_l.(j));
    carry := x.(j) asr 8;
    x.(j) <- x.(j) land 255
  done;
  for j = 0 to 31 do
    x.(j) <- x.(j) - (!carry * order_l.(j))
  done;
  let r = Bytes.create 32 in
  for i = 0 to 31 do
    if i < 31 then x.(i + 1) <- x.(i + 1) + (x.(i) asr 8);
    Bytes_util.set_u8 r i (x.(i) land 255)
  done;
  r

let reduce_64 (h : bytes) =
  let x = Array.init 64 (fun i -> Bytes_util.get_u8 h i) in
  mod_l x

(* Expand a 32-byte seed per RFC 8032: the clamped scalar and the prefix
   used to derive deterministic nonces. *)
let expand_secret seed =
  let d = Sha512.digest seed in
  let scalar = Bytes.sub d 0 32 in
  Bytes_util.set_u8 scalar 0 (Bytes_util.get_u8 scalar 0 land 248);
  Bytes_util.set_u8 scalar 31
    ((Bytes_util.get_u8 scalar 31 land 127) lor 64);
  (scalar, Bytes.sub d 32 32)

let public_key seed =
  if Bytes.length seed <> secret_key_len then
    invalid_arg "Ed25519.public_key: bad seed length";
  let scalar, _ = expand_secret seed in
  Edwards25519.(encode (scalarmult_base scalar))

let keypair ?rng () =
  let seed = Drbg.bytes ?rng 32 in
  (seed, public_key seed)

let sign ~secret:seed message =
  if Bytes.length seed <> secret_key_len then
    invalid_arg "Ed25519.sign: bad seed length";
  let scalar, prefix = expand_secret seed in
  let pk = Edwards25519.(encode (scalarmult_base scalar)) in
  (* r = H(prefix || M) mod L;  R = rB. *)
  let r = reduce_64 (Sha512.digest_list [ prefix; message ]) in
  let r_enc = Edwards25519.(encode (scalarmult_base r)) in
  (* h = H(R || A || M) mod L;  S = (r + h·a) mod L. *)
  let h = reduce_64 (Sha512.digest_list [ r_enc; pk; message ]) in
  let x = Array.make 64 0 in
  for i = 0 to 31 do
    x.(i) <- Bytes_util.get_u8 r i
  done;
  for i = 0 to 31 do
    for j = 0 to 31 do
      x.(i + j) <-
        x.(i + j) + (Bytes_util.get_u8 h i * Bytes_util.get_u8 scalar j)
    done
  done;
  let s = mod_l x in
  Bytes.cat r_enc s

let verify ~public:pk ~signature message =
  if
    Bytes.length pk <> public_key_len
    || Bytes.length signature <> signature_len
  then false
  else begin
    (* A must decode strictly and must not be a torsion point: under a
       small-order key one forged signature verifies many messages (all
       of them, for the identity). *)
    match Edwards25519.decode_neg pk with
    | None -> false
    | Some neg_a when Edwards25519.has_small_order neg_a -> false
    | Some neg_a ->
        let r_enc = Bytes.sub signature 0 32 in
        let s = Bytes.sub signature 32 32 in
        (* Reject non-canonical s (s >= L): required by RFC 8032 and
           prevents signature malleability. *)
        let rec ge i =
          if i < 0 then true
          else begin
            let sb = Bytes_util.get_u8 s i and lb = order_l.(i) in
            if sb > lb then true else if sb < lb then false else ge (i - 1)
          end
        in
        if ge 31 then false
        else begin
          let h = reduce_64 (Sha512.digest_list [ r_enc; pk; message ]) in
          (* R' = sB + h·(-A); valid iff R' = R. *)
          let p = Edwards25519.scalarmult_vartime neg_a h in
          Edwards25519.add p (Edwards25519.scalarmult_base s);
          Bytes_util.ct_equal (Edwards25519.encode p) r_enc
        end
  end
