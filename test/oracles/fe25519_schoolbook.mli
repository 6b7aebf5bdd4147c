(** The schoolbook radix-2^25.5 field multiplication and squaring that
    {!Fe25519}'s Karatsuba kernels replaced, retained as their
    limb-exact oracle: for operands inside {!Fe25519}'s input bound,
    [Fe25519.mul] and [Fe25519.square] must write the same five limbs.
    Used only by [test/prop/]. *)

val mul : Fe25519.t -> Fe25519.t -> Fe25519.t -> unit
(** [mul o a b] is [o <- a * b], aliasing allowed. *)

val square : Fe25519.t -> Fe25519.t -> unit
(** [square o a] is [o <- a * a], aliasing allowed. *)
