(** The adversary's view of a conversation round and Figure 6's
    sensitivity analysis, computed from first principles. *)

type action =
  | Idle
  | Talk_b  (** reciprocated exchange with partner b *)
  | Talk_c
  | Send_x  (** unreciprocated exchange toward x *)
  | Send_y

val delta : real:action -> cover:action -> int * int
(** One Figure 6 cell: the modeled drops' [(m1, m2)] under [real]
    minus those under [cover]. *)

val sensitivity_table : unit -> (action * (int * int) list) list
val max_sensitivity : unit -> int * int
(** [(2, 1)] — the Theorem 1 sensitivities. *)

val pp_table : Format.formatter -> unit -> unit

type round_view = { m1 : int; m2 : int }
(** What the adversary records from a live round. *)

val observe_chain : Vuvuzela.Chain.t -> round_view option
