(** The full Vuvuzela client: a fixed number of fixed-size requests per
    round (real or cover), reliable in-order text delivery with a
    pipelined retransmission window, dialing participation, and the §9
    multiple-conversations extension. *)

type event =
  | Delivered of { peer : bytes; text : string }
  | Acked of { peer : bytes; seq : int }
  | Incoming_call of { caller : bytes; certificate : Certificate.t option }
      (** [certificate], when present, is NOT yet verified — apply
          {!Certificate.verify} under your trust policy. *)
  | Round_failed of { round : int; dialing : bool; status : Rpc.status }
      (** a round this client submitted to was aborted (fault, deadline,
          or shutdown); queued messages are retried in later rounds *)
  | Round_late of { round : int; next_round : int; dialing : bool }
      (** this client missed [round]'s admission window — the entry
          server excluded it and whatever it carried was requeued for
          [next_round]; cover traffic for the slot is redrawn noise *)

type stats = {
  mutable rounds : int;
  mutable data_sent : int;
  mutable retransmissions : int;
  mutable data_received : int;
  mutable duplicates : int;
  mutable dial_rounds : int;
  mutable invitations_scanned : int;
}

type certified_config = {
  signing_sk : bytes;  (** Ed25519 seed for issuing certificates *)
  name : string;
  validity : int;  (** dialing rounds each certificate stays valid *)
}

type t

val create :
  ?seed:string ->
  ?window:int ->
  ?rtt:int ->
  ?max_conversations:int ->
  ?dial_kind:Dialing.kind ->
  ?certified:certified_config ->
  identity:Types.identity ->
  server_pks:bytes list ->
  unit ->
  t
(** [window] is the pipelining depth per conversation (default 4); [rtt]
    the rounds before a retransmission (default 2); [max_conversations]
    the fixed number of exchange requests sent every round (default 1 —
    the paper's prototype; §9 suggests e.g. 5). *)

val identity : t -> Types.identity
val public_key : t -> bytes
val stats : t -> stats

val peers : t -> bytes list

val start_conversation : t -> peer_pk:bytes -> unit
(** Enter a conversation.  Restarts an existing one with the same peer;
    at capacity, the oldest conversation is ended to make room.
    @raise Invalid_argument if [peer_pk] is a low-order key
    ({!Conversation.derive}); the client's conversations are then
    unchanged.  An [Incoming_call]'s caller never is one. *)

val end_conversation : ?peer:bytes -> t -> unit
(** End one conversation, or all when [peer] is omitted. *)

val send : t -> string -> unit
(** Queue text for the single active partner.
    @raise Invalid_argument if there is no (or more than one) active
    conversation, or the text exceeds {!Types.text_capacity}. *)

val send_to : t -> peer:bytes -> string -> unit

val queued : ?peer:bytes -> t -> int
(** Messages queued or in flight (for one peer, or in total). *)

val conversation_requests : t -> round:int -> bytes list
(** The onions to submit this round — always exactly
    [max_conversations] of them, active or idle. *)

val handle_conversation_replies : t -> round:int -> bytes list -> event list
(** Process the round's replies (slot-aligned with
    {!conversation_requests}); returns deliveries and acks in order. *)

val dial : t -> callee_pk:bytes -> unit
(** Request a conversation at the next dialing round. *)

val dialing_request : t -> dial_round:int -> m:int -> bytes
(** This dialing round's onion (a real invitation or a no-op).  The
    reply secrets are retained for {!confirm_dial_ack}. *)

val confirm_dial_ack : t -> dial_round:int -> bytes -> bool
(** Unwrap the chain's fixed-size ack for [dial_round] and check it;
    [true] means the request survived every hop.  Each round's ack can
    be confirmed at most once. *)

val my_invitation_drop : t -> m:int -> int

(** {2 Round aborts}

    The supervisor's client-side recovery: when a round fails in the
    chain, each participant discards that round's reply secrets (the
    onions never completed, and a stored onion must never be
    re-submitted — the retry rebuilds requests with fresh ephemeral
    keys) and requeues whatever the round carried. *)

val abort_round : t -> round:int -> unit
(** Conversation round [round] was aborted: drop its slot contexts and
    mark messages first sent in it as immediately overdue, so the next
    round retransmits them in fresh onions. *)

val abort_dial_round : t -> dial_round:int -> unit
(** Dialing round [dial_round] was aborted: drop its ack secrets and, if
    this client's invitation went into it, requeue the callee so the
    next dialing round sends a fresh invitation. *)

val handle_invitations : t -> bytes list -> event list
(** Trial-decrypt a downloaded invitation drop.  A caller whose key
    {!Conversation.derive} refuses is dropped (one X25519 operation per
    invitation that decrypts). *)
