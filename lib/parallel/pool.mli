(** A reusable OCaml 5 domain pool for the per-onion crypto hot paths.

    The paper's servers spend nearly all their CPU on per-request
    Curve25519/AEAD work (§8.2: the 340K DH ops/s budget of a 36-core
    server sets the latency floor).  That work is embarrassingly
    parallel: each onion peels, seals, or wraps independently.  This
    pool fans an array of such pure computations out over [jobs - 1]
    worker domains plus the calling domain.

    Determinism contract: [map_array]/[mapi_array]/[map_chunks] write
    result [i] from input [i] regardless of which domain computed it,
    so for a pure [f] the output is bit-identical to [Array.map f] at
    every [jobs] value.  Anything stateful — RNG draws, metrics, hash
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

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Chunked parallel [Array.map]: at most [jobs] tasks, each filling a
    contiguous range of one preallocated result array in place — no
    per-item closures, no intermediate chunk arrays, no concatenation
    copy.  [f] must be pure (or at least domain-safe and
    index-independent); exceptions raised by [f] are re-raised on the
    calling domain after the batch drains. *)

val mapi_array : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Chunked parallel [Array.mapi]. *)

val map_chunks : t -> ('a array -> 'b array) -> 'a array -> 'b array
(** [map_chunks t f a] splits [a] into at most [jobs] contiguous chunks
    and calls [f] once per chunk, one chunk per domain, for work that
    shares a cost across its items (one field inversion per chunk of
    peels).  Output [i] comes from input [i]: for an [f] that maps each
    element on its own, the result is [f a] at every [jobs].  A call of
    [f] that returns an array of another length than its chunk raises
    [Invalid_argument]; [f] is never called on an empty chunk. *)

val iter_array : t -> ('a -> unit) -> 'a array -> unit
(** Chunked parallel [Array.iter].  Side effects of [f] run in no
    particular order across chunks; [f] must not touch shared mutable
    state without its own synchronization. *)

val run : t -> (unit -> 'a) array -> 'a array
(** Run independent thunks, one result slot each, in parallel. *)

val shutdown : t -> unit
(** Join the worker domains.  The pool must not be used afterwards;
    idempotent.  A pool with [jobs = 1] has nothing to join. *)
