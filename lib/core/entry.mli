(** The untrusted entry server (§7): multiplexes client requests into
    rounds and demultiplexes results. *)

type submit_status =
  | Accepted  (** inside the admission window; the request has a slot *)
  | Late of { next_round : int }
      (** the round already closed — onions are round-keyed, so the
          request cannot join it; re-wrap for [next_round] *)

type 'id t

val create_streaming :
  ?round:int -> chunk:int -> sink:(bytes array -> unit) -> unit -> 'id t
(** The collector for [round] (default [0]): every time [chunk] requests
    are buffered they are flushed to [sink] as one slot-ordered chunk,
    so the peak buffered onion count is bounded by [chunk], not the
    population (checked by {!peak_buffered}).  Close with
    {!close_stream}.
    @raise Invalid_argument if [chunk < 1]. *)

val submit : 'id t -> 'id -> bytes -> submit_status
(** Before the round closes: record the request, [Accepted].  After:
    answer [Late] — never raises. *)

val peak_buffered : 'id t -> int
(** High-water mark of simultaneously buffered requests: at most the
    chunk size. *)

val close_stream : 'id t -> 'id array
(** Flush the tail chunk to the sink, close the round, and return the
    slot-ordered client ids (the requests already went to the sink). *)

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
