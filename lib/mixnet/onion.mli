(** Onion encryption for Vuvuzela's server chain (Algorithm 1 step 2,
    Algorithm 2 steps 1 and 4).

    Requests gain {!layer_overhead} = 48 bytes per server (ephemeral key +
    AEAD tag); replies gain {!reply_overhead} = 16 bytes per server.  All
    onions of a given chain length and payload size have identical length,
    as indistinguishability requires. *)

val layer_overhead : int
val reply_overhead : int

type wrapped = {
  onion : bytes;  (** send this to the first server *)
  secrets : bytes array;  (** per-layer secrets for unwrapping the reply *)
}

val wrap :
  ?rng:Vuvuzela_crypto.Drbg.t ->
  server_pks:bytes list ->
  round:int ->
  bytes ->
  wrapped
(** Wrap a payload for the chain; [server_pks] lists the first server
    first.  Fresh ephemeral keys per layer per call. *)

val draw_eph_sks :
  ?rng:Vuvuzela_crypto.Drbg.t -> chain_len:int -> unit -> bytes array
(** Draw one raw (unclamped) ephemeral secret per layer, in the same
    DRBG order {!wrap} consumes them (innermost layer first). *)

val wrap_with :
  eph_sks:bytes array -> server_pks:bytes list -> round:int -> bytes -> wrapped
(** [wrap] with the per-layer ephemeral secrets supplied by the caller
    (see {!draw_eph_sks}).  Deterministic in its arguments and safe to
    fan out across domains: its one piece of shared state is the memo of
    server-key comb tables behind {!Vuvuzela_crypto.Curve25519.shared_static},
    which takes no lock on a hit and never changes the output.  Its 2n
    X25519 operations run as one {!Vuvuzela_crypto.Curve25519.batch}.
    [wrap ?rng ... p] ≡
    [wrap_with ~eph_sks:(draw_eph_sks ?rng ~chain_len ()) ... p], and
    [wrap_with] is {!wrap_many}'s one-onion case. *)

val wrap_many :
  server_pks:bytes list ->
  round:int ->
  (bytes array * bytes) array ->
  wrapped array
(** [wrap_many ~server_pks ~round [| (eph_sks, payload); ... |]]: result
    [k] is [wrap_with ~eph_sks ~server_pks ~round payload] of spec [k],
    bit for bit, with the 2n X25519 operations of every onion run as one
    {!Vuvuzela_crypto.Curve25519.batch}: one field inversion for the
    whole array (a server's chunk of noise onions, a load generator's
    part). *)

val request_nonce : round:int -> bytes
(** The AEAD nonce of every request layer of [round]. *)

val peel : server_sk:bytes -> round:int -> bytes -> (bytes * bytes) option
(** Server side: strip one layer, returning [(inner, layer_secret)], or
    [None] if the layer fails to authenticate. *)

val peel_many :
  server_sk:bytes ->
  round:int ->
  bytes array ->
  (bytes * bytes) option array
(** [peel] of each onion, result [i] from onion [i], with the DHs of
    every onion long enough to hold a layer run as one
    {!Vuvuzela_crypto.Curve25519.batch}: one field inversion for them
    all.  A hostile onion fails alone; one keyed by a low-order point,
    whose DH result is all zeros, fails before its AEAD is tried.
    [peel] is its one-onion case.

    The 16 encodings of a key (bit 255 set or clear, times the 8 points
    of order dividing 8 added to it) peel to the same inner onion and
    the same layer secret, so a server that drops replays must compare
    layer secrets, not onion bytes. *)

val seal_reply : secret:bytes -> round:int -> bytes -> bytes
(** Server side: add one reply layer under the stored layer secret. *)

val unwrap_reply : secrets:bytes array -> round:int -> bytes -> bytes option
(** Client side: strip all reply layers. *)

val request_size : chain_len:int -> payload_len:int -> int
