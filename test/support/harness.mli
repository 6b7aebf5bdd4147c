(** Test conveniences built on the library's public API: what several
    suites share and no deployment calls. *)

open Vuvuzela

val round_exn :
  Remote.t ->
  kind:Round.kind ->
  ?m:int ->
  round:int ->
  bytes array ->
  bytes array
(** One round of a materialized batch through a coordinator's link: the
    batch is {!Remote.round_streamed}'s one producer chunk, [m] (default
    0) the invitation drops of a dialing round.  A status frame raises
    [Failure]. *)

val run_schedule :
  ?blocked:(Client.t -> bool) ->
  ?late:(Client.t -> bool) ->
  ?dial_every:int ->
  Network.t ->
  rounds:int ->
  Network.round_report list
(** [rounds] conversation rounds with a dialing round before every
    [dial_every]th (default 10), as a deployment interleaves them
    (§8.1). *)

val noise_payload :
  ?rng:Vuvuzela_crypto.Drbg.t ->
  ?kind:Dialing.kind ->
  index:int ->
  unit ->
  bytes
(** A server's noise invitation (§5.3) framed as a dialing request for
    drop [index]: {!Dialing.noise_invitations} of one {!Dialing.draw}. *)

val pp_event : Format.formatter -> Client.event -> unit
(** One line per client event, for failure messages. *)
