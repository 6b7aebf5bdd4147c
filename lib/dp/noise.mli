(** Server-side cover-traffic planning (Algorithm 2, step 2 and §5.3). *)

type mode =
  | Sampled
  | Deterministic
      (** always add exactly µ — the paper's §8.1 evaluation mode *)

type plan = { singles : int; pairs : int }
(** Noise requests one server adds in a conversation round: [singles]
    lone accesses and [pairs] double accesses to random dead drops. *)

val conversation :
  ?rng:Vuvuzela_crypto.Drbg.t -> mode:mode -> Laplace.params -> plan

val dialing_per_drop :
  ?rng:Vuvuzela_crypto.Drbg.t -> mode:mode -> Laplace.params -> int
(** Noise invitations one server adds to one invitation dead drop. *)

val tune_drop_count :
  users:int -> dial_fraction:float -> Laplace.params -> int
(** §5.4: [m = n·f/µ], at least 1. *)
