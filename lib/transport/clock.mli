(** The deployment's single time source.

    Every timeout in the system — the round supervisor's per-attempt
    deadline, the event loop's select timeout, connection backoff and
    handshake deadlines — reads this clock, so "how long did that take"
    means the same thing at every layer and a test can reason about one
    notion of elapsed time. *)

val now_ms : unit -> float
(** Wall-clock milliseconds since the Unix epoch.  Only differences are
    meaningful; callers never interpret the absolute value. *)

val timed : (unit -> 'a) -> 'a * float
(** Run the thunk and also return its wall-clock duration in ms. *)
