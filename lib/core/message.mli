(** Fixed-size conversation message codec and direction-separated
    sealing.

    Every plaintext encodes to exactly {!Types.message_plain_len} bytes;
    sealed messages are {!Types.sealed_message_len} (256) bytes, so empty
    cover messages and real text are indistinguishable on the wire. *)

type t =
  | Empty of { ack : int }
      (** cover/keepalive; still carries the transport ack *)
  | Data of { seq : int; ack : int; text : string }

val equal : t -> t -> bool

val encode : t -> bytes
(** Always {!Types.message_plain_len} bytes.
    @raise Invalid_argument if the text exceeds {!Types.text_capacity}. *)

val decode : bytes -> (t, string) result

type keys = { send : bytes; recv : bytes }

val direction_keys : base:bytes -> my_pk:bytes -> their_pk:bytes -> keys
(** Derive send/receive keys from the conversation secret; the partner
    computes the mirror-image assignment, avoiding nonce reuse between
    the two directions. *)

val seal : keys:keys -> round:int -> t -> bytes
val open_ : keys:keys -> round:int -> bytes -> t option
