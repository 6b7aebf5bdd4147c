(** A non-blocking, [select]-based event loop.

    Single-threaded and deliberately small: the chain's round protocol
    is lockstep (one batch in flight per link), so a server needs
    exactly "wake me when a socket is readable, writable, a posted task
    is ready or a timer is due".  Handlers may register and unregister
    fds, timers and tasks freely from inside callbacks; changes take
    effect for the next dispatch.

    A loop keeps its own clock: {!Clock}'s wall time plus the time it
    has skipped.  A loop on a {e virtual clock} (the in-process
    deployment's) never sleeps: when nothing is ready it skips to the
    next timer, and {!sleep} skips instead of blocking, so stalls,
    graces and redials cost no wall time and replay the same way every
    run.  A loop on the wall clock never skips. *)

type t

val create : ?virtual_clock:bool -> unit -> t
(** [virtual_clock] defaults to [false]. *)

val now_ms : t -> float
(** The loop's clock: wall-clock ms ({!Clock.now_ms}) plus
    {!skipped_ms}.  Every timer, deadline and stall on the loop reads
    it. *)

val skipped_ms : t -> float
(** Time the clock has skipped so far; always [0.] on the wall clock. *)

val add_fd :
  t ->
  Unix.file_descr ->
  on_readable:(unit -> unit) ->
  on_writable:(unit -> unit) ->
  unit
(** Register a (non-blocking) fd.  Read interest is permanent until
    {!remove_fd}; write interest starts off and is toggled with
    {!want_write} as output queues fill and drain. *)

val want_write : t -> Unix.file_descr -> bool -> unit
val remove_fd : t -> Unix.file_descr -> unit

val post : t -> (unit -> unit) -> unit
(** Run a task on the next dispatch, after the tasks posted before it.
    While tasks wait, a dispatch runs them and fires no timer. *)

val after : t -> ms:float -> (unit -> unit) -> int
(** One-shot timer on the loop's clock; returns an id. *)

val cancel : t -> int -> unit
(** Cancel a pending timer; unknown ids are ignored. *)

val sleep : t -> ms:float -> unit
(** Stall the caller for [ms]: the wall clock blocks, a virtual clock
    skips ahead by exactly [ms].  Timers that fall due meanwhile fire on
    the next dispatch. *)

val run_once : ?max_wait_ms:float -> t -> unit
(** One dispatch.  With tasks posted, run them.  Otherwise, on the wall
    clock, one [select] round: wait (at most [max_wait_ms], default
    until the next timer or 100 ms), dispatch ready fds, fire due
    timers; on a virtual clock, poll the fds without waiting, skip to
    the next timer (never further than [max_wait_ms]) and fire the due
    ones. *)

val run_until : ?deadline_ms:float -> t -> (unit -> bool) -> bool
(** Pump {!run_once} until the predicate holds — [true] — or
    [deadline_ms] elapses on the loop's clock — [false].  A virtual
    loop with no task, timer or fd left can never make progress, so it
    also answers [false] at once.  Otherwise, without a deadline, pumps
    forever. *)
