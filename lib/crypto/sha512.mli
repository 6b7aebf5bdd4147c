(** SHA-512 (FIPS 180-4), pure OCaml; the hash inside {!Ed25519}. *)

val digest : bytes -> bytes
val digest_list : bytes list -> bytes
(** The digest of the parts' concatenation, fed one part at a time. *)
