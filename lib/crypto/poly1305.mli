(** Poly1305 one-time authenticator (RFC 8439).

    The key must be used for a single message; {!Aead} derives a fresh
    Poly1305 key from each (ChaCha20 key, nonce) pair. *)

type t

val init : bytes -> t

val init_from_words :
  w0:int ->
  w1:int ->
  w2:int ->
  w3:int ->
  w4:int ->
  w5:int ->
  w6:int ->
  w7:int ->
  t
(** [init] on the key whose little-endian 32-bit words are [w0..w7]
    (bits above 31 of each word are ignored).  Lets {!Aead} hand over
    ChaCha20 block-0 keystream words without serializing a 32-byte key
    just to parse it back. *)

val feed : t -> bytes -> unit

val feed_sub : t -> bytes -> off:int -> len:int -> unit
(** Absorb a sub-range without slicing; raises [Invalid_argument] on a
    bad range.  [feed t b = feed_sub t b ~off:0 ~len:(Bytes.length b)]. *)

val absorb_lens : t -> aad_len:int -> ct_len:int -> unit
(** Absorb the RFC 8439 length block [le64 aad_len ‖ le64 ct_len],
    built in the state's own buffer: no allocation. *)

val finish : t -> bytes
(** 16-byte tag.  The state must not be fed after finishing. *)

val finish_into : t -> bytes -> off:int -> unit
(** Write the 16-byte tag at [off] instead of allocating. *)

val mac : key:bytes -> bytes -> bytes
