(** The two round types of the protocol, as data, so one supervisor
    ({!Network.run}) serves both. *)

type kind = Conversation | Dialing

val is_dialing : kind -> bool
