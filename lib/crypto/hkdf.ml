(* HKDF with SHA-256 (RFC 5869).  Vuvuzela uses this to derive symmetric
   keys from X25519 shared secrets (one key per onion layer, and
   direction-separated conversation keys). *)

(* The default salt, 32 zero bytes, as an HMAC key: its pad states are
   the same for every extract without a salt (Box.derive, every
   conversation and message key), so they are hashed here, 2 of the 4
   compressions of such an extract.  Built at module initialisation,
   not lazily: derives run on pool domains, and two domains forcing one
   lazy value raise.  Only ever copied ({!Hmac}), so it stays read-only
   for every domain. *)
let zero_salt = Hmac.key (Bytes.make 32 '\000')

let extract ?salt ikm =
  Hmac.mac (match salt with None -> zero_salt | Some s -> Hmac.key s) ikm

(* T(i) = HMAC(prk, T(i-1) ‖ info ‖ i), each written straight into the
   one output buffer, from which the next block reads T(i-1). *)
let expand ~prk ?(info = Bytes.empty) len =
  if len > 255 * 32 then invalid_arg "Hkdf.expand: length too large";
  let key = Hmac.key prk in
  let n = (len + 31) / 32 in
  let out = Bytes.create (32 * n) and ctr = Bytes.create 1 in
  for i = 1 to n do
    let st = Hmac.start key in
    if i > 1 then Sha256.feed_sub st out ~off:(32 * (i - 2)) ~len:32;
    Sha256.feed st info;
    Bytes.set ctr 0 (Char.chr i);
    Sha256.feed st ctr;
    Hmac.finish_into key st out ~off:(32 * (i - 1))
  done;
  if len = 32 * n then out else Bytes.sub out 0 len

let derive ?salt ~ikm ?info len = expand ~prk:(extract ?salt ikm) ?info len
