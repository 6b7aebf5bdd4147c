(** The benchmark's rules, kept apart from the runner so that the
    benchmark's own test pins them: the metric table, which percentiles
    a sample supports, the quartiles and verdicts of [compare], the
    X25519 operation predictor, and the domain budget. *)

(** {2 Metrics} *)

type better = Lower | Higher

type spec = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (** end-to-end metrics only: the share of the parent's median by
          which the metric may worsen before it counts as a regression *)
  floor : float;
      (** an absolute worsening, in the metric's unit, that never counts
          as a regression however large a share of the median it is;
          [BENCHMARK.json] has no field for it *)
}

val end_to_end : spec list
(** What a user of the deployment sees, reported by every workload from
    its untraced rounds.  Mirrored in the repository's [BENCHMARK.json]
    (the test checks that the two agree). *)

val per_layer : spec list
(** What each layer costs, reported by every workload from a traced run. *)

val better_of_string : string -> better option
val string_of_better : better -> string

(** {2 Samples} *)

val median : float list -> float
(** @raise Invalid_argument on an empty sample. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] by the rule of Python's
    [statistics.quantiles(values, n=4)] (the "exclusive" method).  A
    one-element sample gives that element three times.
    @raise Invalid_argument on an empty sample. *)

val spread : float list -> float
(** Interquartile distance as a share of the median. *)

val top_percentile : int -> int
(** The highest of p99, p90, p75 and p50 that has at least ten samples
    beyond it in a sample of [n] (nearest rank); p50 when none has. *)

val percentile : float list -> int -> float
(** Nearest-rank percentile: [percentile xs 75] is the value at rank
    [ceil (0.75 n)] of the sorted sample.
    @raise Invalid_argument on an empty sample or a percent outside
    [1, 100]. *)

(** {2 Comparing two commits} *)

type verdict = Improved | Unchanged | Regressed | Unresolved

val string_of_verdict : verdict -> string

type comparison = {
  base : float * float * float;  (** quartiles of the parent's runs *)
  change : float * float * float;  (** quartiles of the change's runs *)
  wins : int;  (** run pairs the change wins; ties count for neither *)
  pairs : int;
  worse_by : float;
      (** the change's median against the parent's, as a share of the
          parent's; positive is worse in the metric's direction *)
  verdict : verdict option;  (** [None] for a metric without a bound *)
}

val compare_runs : spec -> base:float list -> change:float list -> comparison
(** Runs are paired in the order given.  The tolerance is the larger of
    [bound] times the parent's median and [floor].  [Improved] needs the
    change to win at least nine tenths of the pairs and its median to
    beat the parent's by more than the parent's interquartile distance.
    Otherwise, when either side's interquartile distance is wider than
    the tolerance and not every run of the change beats every run of
    the parent, the verdict is [Unresolved]; else [Regressed] when the
    median is worse by more than the tolerance, else [Unchanged].
    @raise Invalid_argument on an empty side. *)

(** {2 Work predicted from observed counts} *)

val onions_in : n:int -> noise:int array -> int array
(** Onions arriving at each hop of a chain: the [n] client requests plus
    every noise onion the hops before it added ([noise.(i)] is what hop
    [i] adds). *)

val server_dh : dialing:bool -> n:int -> noise:int array -> int
(** X25519 operations the chain performs in one round: one per onion
    peeled at each hop, two per layer of each noise onion a hop wraps
    for the hops after it, and, in a dialing round, two for the sealed
    box inside every noise invitation (the last hop's go straight into
    its store).  A conversation round of [n] clients on three hops with
    [ν0], [ν1] noise is [3n + 6ν0 + 3ν1]. *)

val client_dh : dialing:bool -> chain_len:int -> n:int -> scanned:int -> int
(** X25519 operations the [n] clients perform in one round: two per
    onion layer; a dialing client adds two for the sealed box of its
    invitation or no-op, and one per invitation a callee trial-decrypts
    ([scanned]). *)

(** {2 Domain budget} *)

val check_domains : jobs:int -> nproc:int -> (unit, string) result
(** Refuse a chain of more domains ([jobs]) than the host has cores.
    The load generator runs on the coordinating domain between rounds
    and adds none; a generator with domains of its own would steal cores
    from the servers, and the round time would measure the scheduler. *)
