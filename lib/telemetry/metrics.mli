(** A deterministic metrics registry: counters, gauges, and fixed-bucket
    histograms, with Prometheus text exposition and JSON export.

    The registry never reads a clock or an RNG — every number in it was
    put there by a caller — so aggregation and export are deterministic
    functions of the observation sequence.  Instruments are identified by
    (name, labels); looking one up a second time returns the same handle.

    Not thread-safe: the round engine keeps all instrumentation on the
    coordinating domain (the same contract as its RNG draws). *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry

(** {2 Instruments} *)

val counter :
  registry -> ?help:string -> ?labels:(string * string) list -> string ->
  counter
(** Find-or-create.  Counters are monotone; {!inc} with a negative
    amount raises [Invalid_argument]. *)

val inc : ?by:float -> counter -> unit
val counter_value : counter -> float

val gauge :
  registry -> ?help:string -> ?labels:(string * string) list -> string ->
  gauge

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram :
  registry -> ?help:string -> ?labels:(string * string) list ->
  ?buckets:float array -> string -> histogram
(** [buckets] are increasing finite upper bounds; an implicit [+inf]
    bucket is always appended.  Defaults to log-spaced bounds from
    0.05 ms to 10 s, sized for round and stage latencies.
    Re-registering the same (name, labels) with different buckets raises
    [Invalid_argument]. *)

val observe : histogram -> float -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> float

val quantile : histogram -> float -> float
(** Prometheus-style estimate of quantile [q] ∈ \[0, 1\] by linear
    interpolation inside the bucket holding rank [q·count] (the first
    bucket interpolates from 0; ranks landing in the [+inf] bucket
    return the largest finite bound).  An empty histogram returns 0. *)

(** {2 Export} *)

val to_prometheus : registry -> string
(** Text exposition format: families sorted by name, [# HELP]/[# TYPE]
    headers, histogram [_bucket]/[_sum]/[_count] series with cumulative
    [le] labels. *)

val to_json : registry -> Json.t
(** [{"counters": [...], "gauges": [...], "histograms": [...]}], sorted
    like the Prometheus exposition.  Histograms carry their buckets and
    pre-computed p50/p90/p95/p99 estimates. *)
