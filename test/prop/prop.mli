(** Mini property-test framework: DRBG-seeded generators, case counters,
    and failure reports that name the reproducing seed.  Used by the
    differential crypto suites under [test/prop/]. *)

open Vuvuzela_crypto

type 'a gen = Drbg.t -> 'a

val master_seed : string
(** ["vuvuzela-prop-1"], overridable via the [PROP_SEED] environment
    variable; every case seed is ["<master>/<test>/<case #>"]. *)

exception Counterexample of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Counterexample} with a formatted message. *)

val require : bool -> ('a, unit, string, unit) format4 -> 'a
(** [require ok fmt ...] fails with the message when [ok] is false. *)

val check_hex : what:string -> string -> string -> unit
(** [check_hex ~what expected actual] compares hex strings. *)

val suite : string -> unit
(** Start a named suite section (affects only the report). *)

val check : name:string -> ?count:int -> 'a gen -> ('a -> unit) -> unit
(** Run the property over [count] (default 1000) generated cases.  Each
    case [i] regenerates from [Drbg.of_string (case_seed ~name i)].  A
    case whose generator or property raises fails the test, reported
    with its seed, and the runner goes on to the next test. *)

val vector : name:string -> (unit -> unit) -> unit
(** A single deterministic case (RFC vectors, fixed edge inputs). *)

val gen_bytes : int -> bytes gen
val gen_fe_bytes : bytes gen
(** 32 random bytes — a (possibly non-canonical) field-element encoding. *)

val gen_pair : 'a gen -> 'b gen -> ('a * 'b) gen

val failures : unit -> int
(** Failed tests so far. *)

val exit_summary : unit -> unit
(** Print totals; exit nonzero if any test failed. *)
