(** Cryptographic batch shuffling (Algorithm 2, step 3a). *)

type permutation = int array

val random_permutation :
  ?rng:Vuvuzela_crypto.Drbg.t -> int -> permutation
(** Uniform permutation via Fisher-Yates over the DRBG. *)

val apply : permutation -> 'a array -> 'a array
(** [apply p a] is [b] with [b.(i) = a.(p.(i))]. *)

val unapply : permutation -> 'a array -> 'a array
(** [unapply p (apply p a) = a]. *)
