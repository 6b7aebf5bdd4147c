(** The inter-server wire protocol: framed messages between clients, the
    entry server, and the chain (§3.1 round coordination, §7
    architecture).  Versioned, fixed-item-size batches, which cross every
    link as [*_batch_part] frames. *)

type status = {
  round : int;
  server : int;  (** chain position reporting the failure *)
  stage : string;  (** which link/message failed, e.g. ["conv-batch"] *)
  detail : string;
}
(** A typed error frame: sent in place of the results a server cannot
    produce (framing violation, size mismatch, protocol error), so
    failures cross the wire as first-class messages instead of killing
    the connection. *)

type message =
  | Conv_results of { round : int; replies : bytes array }
  | Dial_results of { round : int; replies : bytes array }
  | Fetch_drop of { dial_round : int; index : int }
  | Drop_contents of {
      dial_round : int;
      index : int;
      invitations : bytes list;
    }
  | Status of status
  | Hello of { index : int }
      (** transport handshake, dialer → listener: the dialer's chain
          position ([-1] for the coordinator/entry process) *)
  | Chain_info of { pks : bytes list }
      (** handshake reply: the listener's public key followed by its
          whole downstream suffix, in chain order — key material
          propagates up a multi-process chain one handshake at a time *)
  | Abort of { round : int; dialing : bool }
      (** discard this round's state everywhere; forwarded hop to hop
          ahead of the supervisor's retry *)
  | Bye  (** graceful chain shutdown, forwarded hop to hop *)
  | Conv_batch_part of {
      round : int;
      seq : int;
      last : bool;
      onions : bytes array;
    }
      (** one contiguous chunk of a conversation batch, sent as soon as
          the upstream hop has produced it.  Parts of a round arrive in
          [seq] order on a single ordered link; [last = true] closes the
          batch.  This is the only way a batch crosses a link: a relay
          that does not pipeline sends one part holding the whole batch,
          so any part size yields the same concatenation.  Tags 1 and 2
          (the retired round announcements) and 3 and 5 (the retired
          whole-batch frames) stay reserved and decode to [Error]. *)
  | Dial_batch_part of {
      round : int;
      m : int;
      seq : int;
      last : bool;
      onions : bytes array;
    }  (** one chunk of a dialing batch; [m] repeats on every part *)
  | Trace_ctx of { ctx : bytes }
      (** observability control frame (tag 16), sent immediately before
          a batch: an opaque {!Vuvuzela_telemetry.Trace.context} blob
          naming the sender's open span, so the receiver's hop span can
          parent into it across the process boundary.  Backward
          compatible by construction — peers that never send it lose
          only the cross-process parent link, and a malformed blob is
          ignored (never aborts a round). *)

val encode : message -> bytes
(** @raise Vuvuzela_mixnet.Wire.Error on ragged batches and on batches
    of empty items. *)

val decode : bytes -> (message, string) result
(** Rejects bad magic, unknown versions/tags, absurd counts, batches of
    empty items, and truncated or trailing bytes. *)

val part :
  Round.kind ->
  round:int ->
  m:int ->
  seq:int ->
  last:bool ->
  bytes array ->
  message
(** The [*_batch_part] frame of a round of this kind ([m] is ignored
    for conversation rounds). *)

val results : Round.kind -> round:int -> bytes array -> message
(** The [*_results] frame of a round of this kind. *)

val stage : Round.kind -> string -> string
(** [stage kind what] names a link stage in a {!status}:
    ["conv-" ^ what] or ["dial-" ^ what]. *)

val part_header : message -> (Round.kind * int * int * int) option
(** [(kind, round, m, seq)] of a [*_batch_part] frame ([m = 0] for
    conversation parts); [None] for every other message. *)

val split_parts : chunk:int -> bytes array -> bytes array array
(** Split a logical batch into the ≤[chunk]-sized contiguous slices a
    relay ships as [*_batch_part] frames ([chunk] clamped ≥ 1; pass the
    batch length for one whole-batch part).  An empty batch yields one
    empty part, so every round is closed by a [last = true] frame. *)

val send_parts :
  ?chunk:int ->
  emit:(seq:int -> last:bool -> bytes array -> unit) ->
  ((bytes array -> unit) -> unit) ->
  unit
(** [send_parts ?chunk ~emit fill] is how every link sends a batch:
    [fill push] pushes it in slot-ordered chunks, each cut into parts of
    at most [chunk] onions (without [chunk], each chunk is one part),
    and [emit] receives the parts numbered from 0 as soon as the next
    one exists, the final one with [last = true].  Pushing nothing emits
    one empty [last] part. *)

val conv_batch_bytes : count:int -> item_len:int -> int
(** Wire size of a conversation batch of [count] items, for bandwidth
    accounting.  The [Conv_batch_part] frame carrying those items is
    exactly 5 bytes longer (its [seq] and [last] fields). *)

val dial_batch_bytes : count:int -> item_len:int -> int
(** Wire size of a dialing batch: {!conv_batch_bytes} plus the u32 [m].
    The [Dial_batch_part] frame is likewise 5 bytes longer. *)

val pp_status : Format.formatter -> status -> unit

(** {2 Coordinator statuses}

    Abort reasons that originate at the round supervisor rather than on
    a link, sharing the [status] type so reports and retry policies are
    uniform. *)

val chain_shutdown : round:int -> status
(** A round was attempted after {!Chain.shutdown} (stage
    ["chain-shutdown"]). *)

val deadline_exceeded : round:int -> deadline_ms:float option -> status
(** No reply in time (stage ["deadline"], retryable): with
    [Some deadline_ms] the reply was not back by the round's deadline,
    or came back after it; with [None] the in-process chain went idle
    with no reply on its way, so none can come, deadline or not. *)

val transport_error : round:int -> server:int -> detail:string -> status
(** A chain link failed mid-round — connection lost, peer unreachable,
    a lost link's grace ended without the reply (stage ["transport"]).
    Retryable: the transport's reconnect machinery restores the link
    while the supervisor retries the round. *)

val key_change : round:int -> server:int -> detail:string -> status
(** A server came back from a reconnect with a different public key
    (stage ["key-change"]; [detail] names it, see {!changed_keys}).
    Onions wrapped to the keys in use — clients' and upstream servers'
    noise alike — would fail to authenticate there, so the reporting
    tier answers rounds with this status instead of running them.
    [server] is the reporting daemon's position (0 when the coordinator
    saw the first hop's handshake change). *)

val changed_keys :
  first:int -> in_use:bytes list -> bytes list -> string option
(** [changed_keys ~first ~in_use handshake] compares the keys of a
    re-handshake with the keys in use, both listing chain positions from
    [first] on: [None] when they are equal, otherwise the detail of a
    {!key_change} naming the first position that differs. *)

val is_chain_shutdown : status -> bool
val is_key_change : status -> bool

val retryable : status -> bool
(** Whether a fresh attempt can succeed: true for every status except
    {!chain_shutdown} (a shut-down chain stays down) and {!key_change}
    (the keys stay changed until the deployment reconnects); link
    faults, crashes, and deadline misses are transient under §7's
    model. *)
