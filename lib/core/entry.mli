(** The untrusted entry server (§7): multiplexes client requests into
    rounds and demultiplexes results. *)

type submit_status =
  | Accepted  (** inside the admission window; the request has a slot *)
  | Late of { next_round : int }
      (** the round already closed — onions are round-keyed, so the
          request cannot join it; re-wrap for [next_round] *)

type 'id t

val create : ?round:int -> unit -> 'id t
(** A fresh materializing collector for [round] (default [0]): all
    requests are buffered until {!close_round}. *)

val create_streaming :
  ?round:int -> chunk:int -> sink:(bytes array -> unit) -> unit -> 'id t
(** A streaming collector: every time [chunk] requests are buffered
    they are flushed to [sink] as one slot-ordered chunk, so the peak
    buffered onion count is bounded by [chunk], not the population
    (checked by {!peak_buffered}).  Close with {!close_stream}.
    @raise Invalid_argument if [chunk < 1]. *)

val round : 'id t -> int

val submit : 'id t -> 'id -> bytes -> submit_status
(** Before the round freezes: record the request, [Accepted].  After:
    record the straggler in {!late} and answer [Late] — never raises. *)

val size : 'id t -> int
(** Admitted requests so far; O(1). *)

val late : 'id t -> 'id list
(** Clients that submitted after the round froze, in arrival order. *)

val peak_buffered : 'id t -> int
(** High-water mark of simultaneously buffered requests.  Equals
    {!size} for a materializing collector; at most the chunk size for a
    streaming one. *)

val close_round : 'id t -> bytes array * 'id array
(** Slot-ordered request batch and the matching client ids.
    @raise Invalid_argument on a streaming collector. *)

val close_stream : 'id t -> 'id array
(** Flush the tail chunk to the sink and return the slot-ordered client
    ids (the requests already went to the sink).
    @raise Invalid_argument on a materializing collector. *)

val request_len : chain_len:int -> dial_kind:Dialing.kind -> Round.kind -> int
(** The size every request of a round of this kind must have: a full
    onion for a [chain_len]-server chain. *)

val normalize : expected:int -> bytes array -> bytes array
(** The ingress policy every deployment applies before a chunk leaves
    for server 0: a request that is not [expected] bytes long is
    replaced with random bytes of that size.  Its slot and reply
    survive; the garbage fails authentication at server 0 and earns a
    dummy reply. *)

val demux : ids:'id array -> bytes array -> ('id * bytes) list
(** Pair each slot's result with its client.
    @raise Invalid_argument on size mismatch. *)
