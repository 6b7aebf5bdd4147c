(** ref10's schoolbook radix-2^25.5 field multiplication and squaring
    on {!Fe25519}'s ten words, retained as the word-exact oracle of its
    Karatsuba kernels: for operands inside {!Fe25519}'s input bound,
    [Fe25519.mul] and [Fe25519.square] must write these ten words.
    Used only by [test/prop/]. *)

val mul : int array -> int array -> int array
(** [mul a b] is the ten words of [a * b], for ten-word operands. *)

val square : int array -> int array
(** [square a] is the ten words of [a * a]. *)
