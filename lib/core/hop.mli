(** One chain server's half of a round (§3, §7): take the predecessor's
    batch as part frames and peel it, then turn the results coming back
    into the reply for upstream.  Each {!Daemon} drives it from its
    event loop — over TCP, and in the in-process {!Chain}, which runs the
    same daemons — so the two tiers cannot disagree about faults or
    framing.

    At most one round arrives at a time.  Its faults fire once, when its
    part 0 arrives, against the whole logical batch: [Crash],
    [Drop_link] and [Partition] lose it, stalls and resets go to the
    driver ({!fired}), frame faults damage part 0's bytes, and
    [Tamper_slot] flips the onion at that absolute slot in whichever
    part carries it.  The receiver acts on the frame it decoded: a
    damaged part 0 that still decodes is checked (kind, round, [seq]) and
    peeled as decoded, [last] included. *)

type t

type fired = {
  kinds : Vuvuzela_faults.Fault.kind list;  (** in plan order *)
  stall_ms : int;
      (** the link stalls this long: [Delay_ms], [Slow_link], [Flap] and
          [Partition] summed *)
  reset : bool;
      (** the upstream connection resets: [Crash], [Flap], [Partition];
          a daemon resets it once the batch has landed, so the parts
          behind part 0 are not lost with it *)
}
(** What a round's fired faults ask of the driver. *)

val create :
  ?pool:Vuvuzela_parallel.Pool.t ->
  ?faults:Vuvuzela_faults.Fault.injector ->
  ?tap:(round:int -> server:int -> bytes array -> unit) ->
  ?on_fire:(fired -> unit) ->
  Config.t ->
  position:int ->
  suffix_pks:bytes list ->
  t
(** The hop of chain position [position], with its {!Server}.  This is
    the one derivation of a position's server from a deployment: its
    {!Server.config} comes from the [Config.t], its RNG seed is
    [seed ^ "-server-" ^ position], so a seeded daemon is bit-identical
    to the same position of an in-process chain.  [suffix_pks] are the
    downstream public keys; [pool] is shared with other servers;
    [telemetry] comes from the [Config.t] and also counts fired faults
    ([vuvuzela_faults_injected_total{kind}], stall time in
    [vuvuzela_injected_delay_ms_total]) and annotates them on the
    innermost open span.  [tap] sees each part's onions as the receiver
    decoded them, after tampering.  [on_fire] is called when a round's
    faults fire, before part 0 is looked at. *)

val server : t -> Server.t

type step =
  | Absorbed  (** peeled; more parts to come *)
  | Finished of bytes array
      (** the last part is in: the forward batch of a mixing server, the
          replies of the last one *)
  | Rejected of Rpc.status
      (** the part broke the protocol (undecodable, wrong kind or round,
          a [seq] gap) or the server refused it: answer upstream with
          this status; the round's later parts are [Ignored] *)
  | Dropped of Rpc.status
      (** a fault lost the batch: the daemon says nothing, and the link
          above notices (its grace after a reset, or the coordinator's
          deadline — in process, the idle loop); the status only names
          the fault; the round's later parts are [Ignored] *)
  | Ignored
      (** no round is open for this part: the tail of a batch already
          finished, rejected or dropped, or of a superseded round *)

val arrive : t -> ?msg:Rpc.message -> bytes -> step
(** One part frame as its sender emitted it; [msg] is that frame
    already decoded by the caller (decoded here otherwise).  Part 0
    opens the round, superseding any other round still open. *)

val backward :
  t ->
  kind:Round.kind ->
  round:int ->
  ?msg:Rpc.message ->
  bytes ->
  (bytes array, Rpc.status) result
(** The results frame coming back from downstream ([msg]: already
    decoded): this server's sealed replies for upstream, or the status
    saying why there are none. *)

val abort : t -> kind:Round.kind -> round:int -> unit
(** Discard the round: its open ingress, and its state on the server. *)
