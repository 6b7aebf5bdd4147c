(** The edwards25519 curve (RFC 8032 §5.1) over {!Fe25519}: point
    formulas, encoding, and the constant-time fixed-base comb that both
    {!Ed25519} and {!Curve25519.scalarmult_base} use.

    Scalars are 32-byte little-endian strings. *)

type point
(** Extended coordinates (X, Y, Z, T); mutable, not shared. *)

val base_point : unit -> point
(** A fresh copy of the base point B = (x, 4/5). *)

val add : point -> point -> unit
(** [add p q] is [p <- p + q] (complete: any points, [p == q] allowed). *)

val scalarmult_base : bytes -> point
(** [kB] in constant time by the signed radix-16 comb over a table built
    at module initialisation.  The scalar must be below 2^255 (bit 255
    clear), as clamped and mod-L-reduced scalars are; otherwise
    [Invalid_argument]. *)

val scalarmult_vartime : point -> bytes -> point
(** Double-and-add in variable time: public scalars only. *)

val montgomery_u : point -> bytes
(** The birationally equivalent Montgomery (X25519) u-coordinate,
    u = (1 + y) / (1 - y), canonically encoded. *)

val encode : point -> bytes
(** Compressed 32-byte encoding: y with the sign of x in the top bit. *)

val decode_neg : bytes -> point option
(** Strict RFC 8032 §5.1.3 decoding, returning the NEGATED point (what
    verification wants).  [None] for y >= p, for y with no x on the
    curve, and for x = 0 with the sign bit set. *)

val has_small_order : point -> bool
(** [8]P is the identity: P is one of the eight torsion points. *)
