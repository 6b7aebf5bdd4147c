(** Per-client cumulative privacy-budget accounting.

    Each attempted round publishes one draw of the noise mechanism to
    the adversary's view, so the ledger charges every participant one
    composition step per {e attempt} (retried rounds redraw noise and
    therefore spend again — being conservative is the point of a
    ledger).  Conversation and dialing rounds compose separately under
    Theorem 2 ({!Vuvuzela_dp.Composition.compose}) and the two spends
    add (basic sequential composition across the two mechanisms).

    ε′ and δ′ are monotone non-decreasing in the number of charged
    rounds, so a client's reported spend never goes down. *)

type t

val create :
  ?d:float ->
  ?warn_eps:float ->
  conv:Vuvuzela_dp.Mechanism.guarantee ->
  dial:Vuvuzela_dp.Mechanism.guarantee ->
  unit ->
  t
(** [conv]/[dial] are the deployment's per-round guarantees (from
    {!Vuvuzela_dp.Mechanism.conversation}/[dialing] on its noise
    parameters).  [d] is Theorem 2's free parameter (default
    {!Vuvuzela_dp.Composition.default_d}).  [warn_eps], when set, marks
    clients whose cumulative ε′ crosses it. *)

val warn_eps : t -> float option

val charge : t -> client:bytes -> dialing:bool -> bool
(** Record one attempted round for [client] (keyed by public key).
    Returns [true] iff this charge moved the client's cumulative ε′
    across [warn_eps] (each client crosses at most once). *)

val clients : t -> int

val rounds : t -> client:bytes -> int * int
(** (conversation, dialing) rounds charged so far; (0, 0) for a client
    never seen. *)

val spent : t -> client:bytes -> Vuvuzela_dp.Mechanism.guarantee
(** [spent_of] applied to the client's charged rounds. *)

val worst : t -> Vuvuzela_dp.Mechanism.guarantee
(** The maximum per-client spend (ε′ maximised; rounds are charged
    deployment-wide so this is also the typical client).  (0, 0) when
    no client was ever charged. *)

val over_budget : t -> int
(** Clients whose cumulative ε′ has crossed [warn_eps] (0 when unset). *)
