(** Byte-level helpers: little-endian loads/stores, hex codecs, xor,
    and constant-time comparison.  Shared by every primitive in
    {!Vuvuzela_crypto}; the symmetric kernels load and store machine
    words through {!Word} instead. *)

val get_u8 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit

val le32 : bytes -> int -> int
(** Little-endian 32-bit load (result in [0, 2^32)). *)

val store_le32 : bytes -> int -> int -> unit
val le64 : bytes -> int -> int
val store_le64 : bytes -> int -> int -> unit

val xor_into : src:bytes -> dst:bytes -> int -> unit
(** [xor_into ~src ~dst len] xors the first [len] bytes of [src] into
    [dst] in place. *)

val ct_equal : bytes -> bytes -> bool
(** Constant-time equality.  Lengths are treated as public. *)

val ct_equal_sub :
  bytes -> a_off:int -> bytes -> b_off:int -> len:int -> bool
(** Constant-time equality of [len]-byte sub-ranges.  Offsets/length are
    treated as public; raises [Invalid_argument] on bad ranges. *)

val of_hex : string -> bytes
(** Decode a hex string; spaces and newlines are ignored.
    @raise Invalid_argument on malformed input. *)

val to_hex : bytes -> string
val concat : bytes list -> bytes

val pad_to : int -> bytes -> bytes
(** [pad_to len b] zero-pads [b] on the right to exactly [len] bytes.
    @raise Invalid_argument if [b] is longer than [len]. *)
