(* HKDF with SHA-256 (RFC 5869).  Vuvuzela uses this to derive symmetric
   keys from X25519 shared secrets (one key per onion layer, and
   direction-separated conversation keys). *)

(* The default salt, 32 zero bytes, as an HMAC key: its pad states are
   the same for every extract without a salt (Box.derive, every
   conversation and message key), so they are hashed here, 2 of the 4
   compressions of such an extract.  Built at module initialisation,
   not lazily: derives run on pool domains, and two domains forcing one
   lazy value raise. *)
let zero_salt = Hmac.key (Bytes.make 32 '\000')

let extract ?salt ikm =
  Hmac.mac (match salt with None -> zero_salt | Some s -> Hmac.key s) ikm

let expand ~prk ?(info = Bytes.empty) len =
  if len > 255 * 32 then invalid_arg "Hkdf.expand: length too large";
  let key = Hmac.key prk in
  let out = Buffer.create len in
  let t = ref Bytes.empty in
  let i = ref 1 in
  while Buffer.length out < len do
    let block =
      Hmac.mac key (Bytes_util.concat [ !t; info; Bytes.make 1 (Char.chr !i) ])
    in
    t := block;
    Buffer.add_bytes out block;
    incr i
  done;
  Bytes.sub (Buffer.to_bytes out) 0 len

let derive ?salt ~ikm ?info len = expand ~prk:(extract ?salt ikm) ?info len
