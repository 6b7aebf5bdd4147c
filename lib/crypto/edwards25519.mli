(** The edwards25519 curve (RFC 8032 §5.1) over {!Fe25519}: point
    formulas, encoding, and the constant-time comb that {!Ed25519},
    {!Curve25519.scalarmult_base} and {!Curve25519.shared_static} use.

    Scalars are 32-byte little-endian strings. *)

type point
(** Extended coordinates (X, Y, Z, T); mutable, not shared. *)

val base_point : unit -> point
(** A fresh copy of the base point B = (x, 4/5). *)

val add : point -> point -> unit
(** [add p q] is [p <- p + q] (complete: any points, [p == q] allowed). *)

type table = private int array
(** A point's comb table: [j * 16^i * P] for [j = 1..8], [i = 0..63],
    in affine form, in the layout {!Fe25519.comb} reads (61 KB).
    Read-only once built, so it may be shared across domains. *)

val table_of_point : point -> table
(** Build [P]'s table: 7 additions and a doubling per row and one
    batched inversion (BENCH_crypto.json's [keyed_table_ms]). *)

val comb : table -> bytes -> point
(** [kP] for [P]'s table, in constant time in [k], by the signed
    radix-16 comb ({!Fe25519.comb}, into a fresh point).  The scalar
    must be below 2^255 (bit 255 clear), as clamped and mod-L-reduced
    scalars are; otherwise [Invalid_argument]. *)

val scalarmult_base : bytes -> point
(** [kB]: {!comb} over the base point's table, built at module
    initialisation. *)

val scalarmult_vartime : point -> bytes -> point
(** Double-and-add in variable time: public scalars only. *)

val montgomery_u : point -> bytes
(** The birationally equivalent Montgomery (X25519) u-coordinate,
    u = (1 + y) / (1 - y), canonically encoded. *)

val montgomery_fraction : point -> num:Fe25519.t -> den:Fe25519.t -> unit
(** [montgomery_u]'s u as the fraction num / den = (Z + Y) / (Z - Y),
    written into [num] and [den] (lazy sums, inside {!Fe25519}'s input
    bound), for a caller that inverts many denominators at once.  The
    identity has den = 0, and maps to u = 0 as [montgomery_u] does. *)

val of_montgomery_u : bytes -> point option
(** A point whose {!montgomery_u} is this u (the top bit of the encoding
    is ignored): y = (u - 1) / (u + 1) and either root of x, which is
    all a caller that maps [kP] back to u needs.  [None] for
    u + 1 = 0 and for u on the quadratic twist. *)

val encode : point -> bytes
(** Compressed 32-byte encoding: y with the sign of x in the top bit. *)

val decode_neg : bytes -> point option
(** Strict RFC 8032 §5.1.3 decoding, returning the NEGATED point (what
    verification wants).  [None] for y >= p, for y with no x on the
    curve, and for x = 0 with the sign bit set. *)

val has_small_order : point -> bool
(** [8]P is the identity: P is one of the eight torsion points. *)
