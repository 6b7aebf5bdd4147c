(** ChaCha20 stream cipher (RFC 8439), optimized hot path.

    The 16-word state lives in unboxed machine-word locals, one loop
    runs the ten double rounds, and keystream is combined with buffers
    eight bytes at a time.  Wire bytes are bit-identical to [Chacha20_ref]
    (the seed implementation, retained in test/oracles as a
    differential oracle),
    enforced by [test/prop/prop_chacha.ml] and the RFC 8439 vector
    tables in [test/test_crypto.ml]. *)

val nonce_len : int
(** 12. *)

val block : key:bytes -> nonce:bytes -> counter:int -> bytes
(** One 64-byte keystream block (exposed for test vectors). *)

val xor_into :
  key:bytes ->
  nonce:bytes ->
  counter:int ->
  src:bytes ->
  src_off:int ->
  dst:bytes ->
  dst_off:int ->
  len:int ->
  unit
(** XOR [len] keystream bytes (starting at block [counter]) with [src]
    at [src_off], writing to [dst] at [dst_off]; this is both encryption
    and decryption.  [src] and [dst] may be the same buffer at the same
    offset (in-place).  Raises [Invalid_argument] on out-of-bounds
    ranges. *)

val keystream_into :
  key:bytes -> nonce:bytes -> counter:int -> bytes -> off:int -> len:int -> unit
(** Write [len] raw keystream bytes directly into the buffer at [off],
    with no intermediate zero buffer. *)

val encrypt : ?counter:int -> key:bytes -> nonce:bytes -> bytes -> bytes
(** Encrypt, and so decrypt, with initial block counter [counter]
    (default 1, per the RFC's AEAD usage). *)

val keystream : key:bytes -> nonce:bytes -> counter:int -> int -> bytes
(** [keystream ~key ~nonce ~counter len] is [len] raw keystream bytes. *)

(** {2 State-level interface}

    Used by {!Aead} to share one key/nonce state setup between poly-key
    derivation (block 0) and the cipher stream (blocks 1..); everything
    above is expressible in terms of these. *)

val init_state : key:bytes -> nonce:bytes -> counter:int -> int array
(** The 16-word ChaCha20 state for (key, nonce, counter); validates key
    and nonce lengths. *)

val block_words : int array -> int -> int array -> unit
(** [block_words st ctr ws] writes the keystream words of the block at
    counter [ctr] into [ws].(0..15) ([st].(12) is ignored in favour of
    [ctr]), each in [0, 2^32).  Allocates nothing. *)

val xor_with_state :
  int array ->
  counter:int ->
  src:bytes ->
  src_off:int ->
  dst:bytes ->
  dst_off:int ->
  len:int ->
  unit
(** {!xor_into} on an already-initialized state. *)
