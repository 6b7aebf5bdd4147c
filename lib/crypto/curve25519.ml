(* X25519 scalar multiplication (RFC 7748) over the shared Fe25519 field
   arithmetic: a Montgomery ladder (constant sequence of field operations
   per scalar bit) for a variable base, and Edwards25519's constant-time
   comb for the fixed base.

   This is the paper's dominant cost: every onion layer wrap/unwrap is one
   scalar multiplication (§8.2, "each 36-core machine can perform about
   340,000 Curve25519 Diffie-Hellman operations per second").  The field
   is the 51-bit-limb Fe25519; the seed ladder is retained verbatim in
   test/oracles/curve25519_ref as the differential-testing oracle.

   scalarmult_base — every fresh ephemeral key: clients' onion layers,
   servers' noise onions, dialing's sealed boxes, key generation — works
   on the birationally equivalent Edwards curve instead: the clamped
   scalar times the Edwards base point by the comb (~750 field
   multiplications and squarings against the ladder's ~2,560), mapped to
   u = (1 + y)/(1 - y).  The clamped scalar has bit 255 clear, as the
   comb requires, and the output is the same canonical encoding. *)

let key_len = 32
let scalar_len = 32

let clamp scalar =
  let z = Bytes.copy scalar in
  Bytes_util.set_u8 z 0 (Bytes_util.get_u8 z 0 land 248);
  Bytes_util.set_u8 z 31 ((Bytes_util.get_u8 z 31 land 127) lor 64);
  z

(* The ladder proper over the clamped scalar [z] and input
   u-coordinate [x]. *)
let ladder z (x : Fe25519.t) =
  let open Fe25519 in
  let a = create ()
  and b = copy x
  and c = create ()
  and d = create ()
  and e = create ()
  and f = create () in
  a.(0) <- 1;
  d.(0) <- 1;
  for i = 254 downto 0 do
    let r = (Bytes_util.get_u8 z (i lsr 3) lsr (i land 7)) land 1 in
    cswap a b r;
    cswap c d r;
    add e a c;
    sub a a c;
    add c b d;
    sub b b d;
    square d e;
    square f a;
    mul a c a;
    mul c b e;
    add e a c;
    sub a a c;
    square b a;
    sub c d f;
    mul_small a c 121665;
    add a a d;
    mul c c a;
    mul a d f;
    mul d b x;
    square b e;
    cswap a b r;
    cswap c d r
  done;
  let inv_c = create () in
  invert inv_c c;
  let out = create () in
  mul out a inv_c;
  pack out

let scalarmult ~scalar ~point =
  if Bytes.length scalar <> scalar_len then
    invalid_arg "Curve25519: bad scalar length";
  if Bytes.length point <> key_len then
    invalid_arg "Curve25519: bad point length";
  let z = clamp scalar in
  let x = Fe25519.unpack point in
  ladder z x

let base_point =
  let b = Bytes.make 32 '\000' in
  Bytes.set b 0 '\x09';
  b

let scalarmult_base scalar =
  if Bytes.length scalar <> scalar_len then
    invalid_arg "Curve25519: bad scalar length";
  Edwards25519.(montgomery_u (scalarmult_base (clamp scalar)))

(* Diffie-Hellman: the raw shared point is passed through HKDF before use
   as a symmetric key (see Box), matching best practice. *)
let shared ~secret ~public = scalarmult ~scalar:secret ~point:public
