(* HMAC-SHA256 (RFC 2104 / FIPS 198-1).  A key's two pad blocks are one
   SHA-256 compression each; [key] hashes them once, and every tag under
   the key resumes from copies of the two states. *)

let block_size = 64

type key = { inner : Sha256.t; outer : Sha256.t }

let key k =
  let k = if Bytes.length k > block_size then Sha256.digest k else k in
  let pad c =
    let block = Bytes.make block_size c in
    Bytes_util.xor_into ~src:k ~dst:block (Bytes.length k);
    let st = Sha256.init () in
    Sha256.feed st block;
    st
  in
  { inner = pad '\x36'; outer = pad '\x5c' }

let mac key data =
  let inner = Sha256.copy key.inner in
  Sha256.feed inner data;
  let outer = Sha256.copy key.outer in
  Sha256.feed outer (Sha256.get inner);
  Sha256.get outer

let sha256 ~key:k data = mac (key k) data
let verify ~key ~tag data = Bytes_util.ct_equal tag (sha256 ~key data)
