(** Binary wire format.  Little-endian integers; explicit fixed-size
    fields because message sizes must not depend on user activity
    (§3.2 of the paper). *)

exception Error of string

val max_frame_len : int
(** Hard ceiling (64 MiB) on any length this codec honours: length
    prefixes, fixed fields, and whole frames.  Shared with the TCP
    transport's frame codec, so a hostile length prefix is rejected with
    a typed error instead of an unbounded [Bytes.create] — whether it
    arrives in-process or over a socket. *)

module Writer : sig
  type t

  val create : ?size:int -> unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int -> unit

  val bytes_fixed : t -> len:int -> bytes -> unit
  (** @raise Error if the buffer is not exactly [len] bytes. *)

  val bytes_var : t -> bytes -> unit
  (** u32 length prefix followed by the bytes. *)

  val raw : t -> bytes -> unit
  val contents : t -> bytes
  val length : t -> int
end

module Reader : sig
  type t

  val of_bytes : bytes -> t
  val remaining : t -> int
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int
  val bytes_fixed : t -> int -> bytes
  val bytes_var : t -> bytes
  val rest : t -> bytes
  val expect_end : t -> unit
end

val encode : (Writer.t -> unit) -> bytes

val decode : (Reader.t -> 'a) -> bytes -> ('a, string) result
(** Runs the decoder and checks all input was consumed. *)
