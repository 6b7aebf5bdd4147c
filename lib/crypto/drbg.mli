(** ChaCha20-based deterministic random bit generator.

    All randomness in the system — ephemeral keys, dead-drop IDs, shuffle
    permutations, Laplace noise — flows through this module so that tests
    and simulations are reproducible from a seed while deployments seed
    from [/dev/urandom]. *)

type t

val create : seed:bytes -> t
(** Deterministic generator from an arbitrary-length seed. *)

val of_string : string -> t
(** Convenience: [create ~seed:(Bytes.of_string s)]. *)

val create_system : unit -> t
(** Seeded from the operating system. *)

val generate : t -> int -> bytes

val bytes : ?rng:t -> int -> bytes
(** Draw from [rng], or from a lazily-created process-global system
    generator when omitted. *)

val uniform : ?rng:t -> int -> int
(** Unbiased uniform integer in [\[0, bound)]. *)

val float_unit : ?rng:t -> unit -> float
(** Uniform float in [\[0, 1)] with 53 bits of precision. *)

val keypair : ?rng:t -> unit -> bytes * bytes
(** Fresh X25519 [(secret, public)] pair. *)
