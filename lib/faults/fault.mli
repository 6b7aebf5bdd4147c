(** Declarative, deterministic fault injection for the server chain.

    Vuvuzela's availability story (§4.2, §7 of the paper) is that a
    failed round is indistinguishable from "the partner didn't reply":
    servers abort the round and redraw noise, clients retry with fresh
    onions.  Exercising that machinery needs reproducible failures, so a
    fault plan is pure data: a list of (round, link, kind) triples that
    the chain consumes as rounds run.  Under a fixed deployment seed a
    plan makes the whole failure schedule — and everything downstream of
    it — bit-deterministic.

    Faults fire at the chain's forward link boundaries: a fault at
    [server = i] affects the batch crossing the link {i} (entry → server
    0, or server i-1 → server i) in round [round].  Each fault fires at
    most once (a crashed server restarts for the retry; a lossy link
    recovers), which is what lets a bounded retry policy make progress. *)

type kind =
  | Crash  (** the receiving server crashes: [[Lose; Reset]] *)
  | Drop_link  (** the batch never arrives: [[Lose]] *)
  | Corrupt_frame of int
      (** [[Edit_frame]]: XOR byte [pos mod frame length] of the encoded
          frame with 0xff; positions 0-5 hit the magic/version/tag
          header and are guaranteed to fail decoding *)
  | Truncate_frame of int
      (** [[Edit_frame]]: cut the frame to its first [n] bytes *)
  | Extend_frame of int  (** [[Edit_frame]]: append [n] garbage bytes *)
  | Delay_ms of int
      (** the batch is held for [ms]: [[Delay ms]], for exercising
          deadlines deterministically *)
  | Tamper_slot of int
      (** the §2.1 active adversary, [[Tamper slot]]: flip a byte of
          the onion at absolute batch position [slot] (none if the batch
          is shorter); framing survives but that request fails
          authentication at the receiving server *)
  | Slow_link of int
      (** the link is congested for [ms]: [[Stall ms]], the batch lands
          intact but late — survivable when the round deadline has
          slack *)
  | Flap of int
      (** the connection resets and heals after [ms]: [[Stall ms;
          Reset]]; no processed data is lost, the round's reply waits in
          the daemon's outbox for the healed link *)
  | Partition of int
      (** the link is cut for [ms]: [[Lose; Stall ms; Reset]], a drop
          plus a slow heal *)

type effect =
  | Lose  (** the batch is lost: the server peels none, answers nothing *)
  | Delay of int  (** the batch is held [ms]; the link stays healthy *)
  | Stall of int  (** the link stalls [ms]; what it carries lands late *)
  | Reset  (** the upstream connection resets once the batch has landed *)
  | Tamper of int  (** the onion at this absolute slot flips ({!tamper_part}) *)
  | Edit_frame  (** part 0's frame arrives as {!apply_frame} edits it *)
(** What a fired fault does at the receiving server, once per round
    against the whole logical batch.  A daemon applies the effects; which
    kind has which is written only here. *)

val effects : kind -> effect list
(** The kind's effects, as its doc above lists them. *)

val tag : kind -> string
(** The kind's short tag: the [kind] label of
    [vuvuzela_faults_injected_total] and [vuvuzela_link_stalls_total],
    and the span annotation [fault.<tag>]. *)

type fault = { round : int; server : int; kind : kind }
(** [server] is the 0-based chain position whose incoming link the fault
    hits; [round] is the conversation- or dialing-round number running
    when it fires. *)

type plan = fault list

val pp_kind : Format.formatter -> kind -> unit

val to_string : plan -> string
(** Render a plan in the grammar [parse] accepts. *)

val parse : string -> (plan, string) result
(** Parse the fault-plan grammar (also the CLI [--fault-plan] syntax):

    {v
    plan   := fault (';' fault)* | ''
    fault  := kind '@' round [':' server] ['x' count]
    kind   := 'crash' | 'drop' | 'corrupt(' byte ')' | 'truncate(' n ')'
            | 'pad(' n ')' | 'delay(' ms ')' | 'tamper(' slot ')'
            | 'slow(' ms ')' | 'flap' | 'flap(' ms ')' | 'partition(' ms ')'
    v}

    [server] defaults to 0 (the entry link); ['x' count] repeats the
    fault at [count] consecutive rounds starting at [round] (so
    [crash@2:1x3] crashes server 1's link in rounds 2, 3 and 4 — one
    firing per round).  Whitespace around tokens is ignored. *)

val apply_frame : bytes -> kind -> bytes
(** The [Edit_frame] effect: what the faulty wire delivers for the frame
    a sender emitted.  Frame-level kinds mutate a copy ([Corrupt_frame]
    XORs one byte, [Truncate_frame]/[Extend_frame] resize); every other
    kind returns the frame unchanged. *)

val tamper_part : off:int -> int list -> bytes array -> bytes array * int list
(** The [Tamper] effect on one part of a batch: [tamper_part ~off slots
    part], where [part] holds the batch's onions [off] to
    [off + Array.length part - 1], flips byte 0 of each onion whose
    absolute slot is in [slots] (in a copy) and returns the slots past
    the part, still pending for later ones.  A slot past the end of the
    batch tampers nothing.  Framing survives; authentication at the
    receiving server does not. *)

(** {2 Injection} *)

type injector
(** The mutable consumption state of one plan.  A chain owns one. *)

val injector : plan -> injector

val fire : injector -> round:int -> server:int -> kind list
(** The faults scheduled for this link crossing, in plan order; each is
    consumed (removed from the pending set) as it is returned. *)

val pending : injector -> int
(** Faults not yet fired. *)
