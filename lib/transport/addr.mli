(** Socket addresses as the daemons' CLI spells them: ["HOST:PORT"]. *)

val parse : string -> (Unix.sockaddr, string) result
(** ["127.0.0.1:7000"], ["localhost:7000"], or [":7000"] (loopback).
    Hostnames are resolved once, at parse time. *)

val loopback : port:int -> Unix.sockaddr

val to_string : Unix.sockaddr -> string
