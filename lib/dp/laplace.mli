(** Laplace distribution and the paper's truncated-ceiled noise
    [⌈max(0, Laplace(µ, b))⌉] (Algorithm 2, step 2). *)

type params = { mu : float; b : float }

val params : mu:float -> b:float -> params
(** @raise Invalid_argument if [b <= 0]. *)

val sample : ?rng:Vuvuzela_crypto.Drbg.t -> params -> float
(** A raw Laplace(µ, b) variate via inverse-CDF sampling. *)

val truncated_sample : ?rng:Vuvuzela_crypto.Drbg.t -> params -> int
(** [⌈max(0, Laplace(µ, b))⌉] — the number of noise requests a server
    adds.  Always non-negative. *)

val stddev : params -> float
(** [b·√2], the standard deviation of the untruncated distribution. *)

val cdf : params -> float -> float
