(** Lightweight span tracing for the round pipeline.

    A span is one timed stage of one round on one participant: servers
    record [peel]/[noise]/[shuffle]/[exchange]/[reseal]/[unpeel], the
    coordinator records the enclosing round span, clients record
    build/decrypt.  Spans nest: beginning a span while another is open
    links the child to it, so a round's stage spans all hang off that
    round's root span.

    The tracer is append-only and single-domain (the round engine keeps
    instrumentation on the coordinating domain).  Timestamps come from
    the injected [clock] — wall time by default, a counter in tests —
    and are relative to the tracer's creation, so exports are stable
    under a fake clock. *)

type t

type context = { trace : int; origin : int; span : int }
(** A compact cross-process parent reference: the emitting tracer's
    trace id and origin, plus the local id of the span to parent into.
    Carried on the wire ([Rpc.Trace_ctx]) so daemon-side spans can link
    into the coordinator's round root at merge time. *)

type span = {
  id : int;
  parent : int option;
  remote : context option;
      (** parent span in another process, resolved by {!merge_jsonl} *)
  name : string;
  round : int;
  server : int;  (** chain position; [-1] for coordinator/client spans *)
  dialing : bool;
  start_ms : float;  (** relative to the tracer's epoch *)
  mutable dur_ms : float;
  mutable annotations : (string * string) list;  (** newest first *)
  mutable closed : bool;
}

val create : ?clock:(unit -> float) -> ?trace_id:int -> ?origin:int -> unit -> t
(** [clock] returns seconds (monotonic enough for durations); defaults
    to [Unix.gettimeofday].  [trace_id] defaults to a fresh pid/time
    derived value; [origin] identifies the process in a merged trace
    (convention: 0 = coordinator, [i + 1] = chain server [i]). *)

val begin_span :
  t -> name:string -> round:int -> ?server:int -> ?dialing:bool -> unit ->
  span
(** Opens a span as a child of the innermost open span (if any) and
    makes it the innermost. *)

val begin_remote_span :
  t -> name:string -> round:int -> ?server:int -> ?dialing:bool ->
  ?remote:context -> unit -> span
(** Opens a span whose parent is named by the context that arrived on
    the wire, not by the local open stack.  A context this tracer minted
    (same trace id and origin: the servers of an in-process chain share
    the coordinator's tracer) resolves to that local span as [parent].
    Any other [remote] context is recorded, with [parent = None], for
    {!merge_jsonl} to resolve.  The span still becomes the innermost
    open span, so local stage spans nest under it as usual. *)

val context_of : t -> span -> context
(** The wire context that makes [span] the remote parent of spans opened
    in another process.  If [span] was itself opened with
    {!begin_remote_span} and a remote context, the context propagates
    {e that} trace id — the one the coordinator minted — so re-stamped
    contexts along a chain all name the root trace. *)

(** {2 Wire codec} *)

val encode_context : context -> bytes

val decode_context : bytes -> context option
(** Total: wrong length, negative ids, or an out-of-range origin decode
    to [None] — a poisoned context never raises. *)

val end_span : t -> span -> unit
(** Closes the span (idempotent), recording its duration and popping it
    — and any unclosed children, defensively — off the open stack. *)

val with_span :
  t -> name:string -> round:int -> ?server:int -> ?dialing:bool ->
  (unit -> 'a) -> 'a
(** [begin_span]/[end_span] around a thunk, exception-safe. *)

val instant :
  t -> name:string -> round:int -> ?server:int -> ?dialing:bool -> unit ->
  unit
(** A zero-duration marker span — a stage that does not apply to this
    participant but must still appear in the trace for coverage. *)

val annotate : t -> string -> string -> unit
(** Attach a key/value to the innermost open span; dropped when no span
    is open. *)

val spans : t -> span list
(** All spans, in begin order. *)

val span_count : t -> int

(** {2 Export} *)

val to_jsonl : t -> string
(** One span per line, in begin order:
    [{"id":…,"parent":…,"name":…,"round":…,"server":…,"dialing":…,
      "start_ms":…,"dur_ms":…,"annotations":{…},"origin":…,"trace":…}]
    plus ["ctx":{"trace","origin","span"}] on remote-rooted spans. *)

val merge_jsonl : (string * string) list -> (string, string) result
(** [merge_jsonl [(label, jsonl); …]] merges per-process exports into
    one trace.  The coordinator's export must come first (its trace id
    anchors the merge).  Span ids are renumbered via an
    [(origin, local id)] map, each ["ctx"] back-reference whose trace id
    matches the root's becomes an ordinary ["parent"] link, and every
    line gains a ["process"] label.  The result passes
    {!validate_jsonl}: processes are emitted in the given order, so
    resolved parents always precede their children. *)

val validate_jsonl : string -> (unit, string) result
(** The smoke test's schema checker: every line must parse as a span
    object with the right field types, ids must be unique and parents
    must reference an earlier id, durations must be non-negative. *)
