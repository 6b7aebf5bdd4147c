(** A reusable OCaml 5 domain pool for the per-onion crypto hot paths.

    The paper's servers spend nearly all their CPU on per-request
    Curve25519/AEAD work (§8.2: the 340K DH ops/s budget of a 36-core
    server sets the latency floor).  That work is embarrassingly
    parallel: each onion peels, seals, or wraps independently.  This
    pool fans an array of such pure computations out over [jobs - 1]
    worker domains plus the calling domain.

    Determinism contract: [mapi_array] and [map_chunks] write result
    [i] from input [i] regardless of which domain computed it, so for a
    pure [f] the output is bit-identical to [Array.mapi f] at every
    [jobs] value.  Anything stateful — RNG draws, metrics, hash
    tables — must stay on the coordinating domain; only pure per-item
    crypto belongs in [f]. *)

type t

val create : jobs:int -> t
(** A pool running work on [max 1 jobs] domains in total ([jobs - 1]
    spawned workers; the caller is the remaining one).  [jobs = 1]
    spawns nothing and degrades every combinator to its sequential
    equivalent. *)

val jobs : t -> int

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available to this process. *)

(** {2 Chunks}

    [mapi_array] and [map_chunks] cut an array of [n] items by one
    rule: into [8 * jobs] contiguous chunks, but never chunks of fewer
    than 4 items (so [n / 4] chunks when that is fewer, and the whole
    array on the calling domain when it is under 8 items or
    [jobs = 1]).  The bounds depend on [n] and [jobs]
    alone.  The chunks go on the pool's one queue and every domain, the
    caller included, takes the next chunk when it finishes its last: a
    domain the host slows down runs fewer chunks instead of holding the
    batch. *)

val mapi_array : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Chunked parallel [Array.mapi]: one task per chunk, each filling its
    contiguous range of one result array in place — no per-item
    closures, no intermediate chunk arrays, no concatenation copy.  [f]
    must be pure (or at least domain-safe); exceptions raised by [f] are
    re-raised on the calling domain after the batch drains. *)

val map_chunks : t -> ('a array -> 'b array) -> 'a array -> 'b array
(** [map_chunks t f a] cuts [a] into the chunks above and calls [f]
    once per chunk, for work that shares a cost across its items (one
    field inversion per chunk of peels, which the 4-item floor keeps a
    small share of the chunk).  Each chunk's result is written into its
    own range of one result array: output [i] comes from input [i], so
    for an [f] that maps each element on its own, the result is [f a]
    at every [jobs].  A call of [f] that returns an array of another
    length than its chunk raises [Invalid_argument], at every [jobs];
    [f] is never called on an empty chunk. *)

val run : t -> (unit -> 'a) array -> 'a array
(** Run independent thunks, one task and one result slot each, in
    parallel. *)

val shutdown : t -> unit
(** Join the worker domains.  The pool must not be used afterwards;
    idempotent.  A pool with [jobs = 1] has nothing to join. *)
