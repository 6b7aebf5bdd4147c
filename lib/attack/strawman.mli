(** The §4 strawman baseline (Figure 4): one fully-visible server, no
    mixing, no noise.  Broken by construction — the contrast case for
    the disclosure attacks. *)

type user = int
type behavior = Offline | Idle_cover | Talking_to of user

type round_log = { accesses : (user * string) list }
(** The compromised server's complete view: who accessed which drop. *)

val run_round :
  round:int -> users:user list -> behavior:(user -> behavior) -> round_log

val communicating_pairs : round_log -> (user * user) list
(** The trivial attack: drops accessed by exactly two users. *)

val confirmation_attack :
  round:int ->
  users:user list ->
  behavior:(user -> behavior) ->
  suspects:user * user ->
  bool
(** The §2.1 active attack: block everyone but the suspects and observe
    whether an exchange still happens.  Decisive in one round. *)
