(* HMAC-SHA256 (RFC 2104 / FIPS 198-1).  A key's two pad blocks are one
   SHA-256 compression each; [key] hashes them once, and every tag under
   the key resumes from a copy of the inner state.  The inner digest is
   written where the tag goes, fed from there to the same state reset to
   the outer pad's, and overwritten by the tag: one state per tag, and no
   digest buffer.  The key's states are only ever copied, so one key can
   serve every domain. *)

let block_size = 64
let digest_len = 32

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

let start key = Sha256.copy key.inner

let finish_into key st dst ~off =
  Sha256.get_into st dst ~off;
  Sha256.blit ~src:key.outer ~dst:st;
  Sha256.feed_sub st dst ~off ~len:digest_len;
  Sha256.get_into st dst ~off

let mac key data =
  let st = start key in
  Sha256.feed st data;
  let tag = Bytes.create digest_len in
  finish_into key st tag ~off:0;
  tag

let sha256 ~key:k data = mac (key k) data
