(* The chain of Vuvuzela servers and round orchestration (§3).

   All clients connect (through the entry server) to server 0; requests
   travel down the chain, are resolved at the last server, and results
   travel back up.  This module runs the whole in-process round trip,
   calling each server in order — the same sequence of messages a
   networked deployment would exchange. *)

module Pool = Vuvuzela_parallel.Pool
module Fault = Vuvuzela_faults.Fault
module Telemetry = Vuvuzela_telemetry.Telemetry

type t = {
  hops : Hop.t array;  (** one per server, in chain order *)
  pool : Pool.t option;  (** shared by all servers; [None] ⇒ sequential *)
  faults : Fault.injector option;  (** shared by all hops *)
  tel : Telemetry.t option;
      (** shared with the servers; [None] is the nil sink *)
  part_chunk : int option;
      (** onions per part on a relay link; [None]: one part per batch *)
  mutable shut_down : bool;
  delay_ms : float ref;
      (** virtual link stall accumulated by fired faults during the round
          in flight; reset when a round starts *)
}

let of_config (cfg : Config.t) =
  if cfg.n_servers < 1 then
    invalid_arg "Chain.of_config: need at least one server";
  if cfg.jobs < 1 then invalid_arg "Chain.of_config: jobs must be >= 1";
  (* The servers take turns (the in-process round trip is sequential
     along the chain), so one pool serves them all. *)
  let pool = if cfg.jobs > 1 then Some (Pool.create ~jobs:cfg.jobs) else None in
  let faults = Option.map Fault.injector cfg.fault_plan in
  (* The in-process link has no socket to reset or clock to stall, so a
     fired fault's stall becomes virtual delay for the supervisor's
     deadline check. *)
  let delay_ms = ref 0. in
  let on_fire (f : Hop.fired) =
    delay_ms := !delay_ms +. float_of_int f.stall_ms
  in
  (* Build from the last server backwards so each server knows the public
     keys of its downstream suffix. *)
  let rec build position below =
    if position < 0 then below
    else
      let suffix_pks =
        List.map (fun h -> Server.public_key (Hop.server h)) below
      in
      build (position - 1)
        (Hop.create ?pool ?faults ?tap:cfg.tap ~on_fire cfg ~position
           ~suffix_pks
        :: below)
  in
  {
    hops = Array.of_list (build (cfg.n_servers - 1) []);
    pool;
    faults;
    tel = cfg.telemetry;
    part_chunk = Config.part_chunk cfg;
    shut_down = false;
    delay_ms;
  }

let length t = Array.length t.hops
let server t i = Hop.server t.hops.(i)
let last t = server t (length t - 1)
let jobs t = match t.pool with Some p -> Pool.jobs p | None -> 1

let shutdown t =
  t.shut_down <- true;
  Option.iter Pool.shutdown t.pool

let is_shut_down t = t.shut_down
let last_round_delay_ms t = !(t.delay_ms)

let pending_faults t =
  match t.faults with None -> 0 | Some inj -> Fault.pending inj

(* Public keys in chain order — what clients onion-wrap against. *)
let public_keys t =
  Array.to_list (Array.map (fun h -> Server.public_key (Hop.server h)) t.hops)

(* Every frame that crosses a link is routed through the Rpc codec, so
   the in-process chain exchanges exactly the bytes a networked
   deployment would (framing, versioning, fixed item sizes).  A failure
   becomes a typed [Rpc.status] — itself pushed through the codec, since
   a real deployment would send it as a frame too. *)
let status_frame st =
  match Rpc.decode (Rpc.encode (Rpc.Status st)) with
  | Ok (Rpc.Status st) -> st
  | Ok _ | Error _ -> assert false (* the codec round-trips its own frames *)

let ( let* ) = Result.bind

(* One batch across the link into [server]: [fill push] pushes it in
   slot-ordered chunks, which leave as part frames for the receiver's
   hop.  Its first verdict is the link's outcome; once there is one, the
   rest of the batch stays unsent. *)
let cross t ~kind ~round ~m ~server fill =
  let verdict = ref Hop.Absorbed in
  Rpc.send_parts ?chunk:t.part_chunk
    ~emit:(fun ~seq ~last onions ->
      match !verdict with
      | Hop.Absorbed ->
          verdict :=
            Hop.arrive t.hops.(server)
              (Rpc.encode (Rpc.part kind ~round ~m ~seq ~last onions))
      | _ -> ())
    fill;
  match !verdict with
  | Hop.Finished out -> Ok out
  | Hop.Rejected st | Hop.Dropped st -> Error (status_frame st)
  | Hop.Absorbed | Hop.Ignored ->
      Error
        (Rpc.transport_error ~round ~server
           ~detail:"batch ended without its last part")

(* Everything from the link into [server] down: the batch crosses, the
   receiver's output crosses the next link, and the results coming back
   are sealed for upstream. *)
let rec descend t ~kind ~round ~m ~server fill =
  let* out = cross t ~kind ~round ~m ~server fill in
  if server = length t - 1 then Ok out
  else
    let* below = descend t ~kind ~round ~m ~server:(server + 1) (fun push -> push out) in
    Hop.backward t.hops.(server) ~kind ~round
      (Rpc.encode (Rpc.results kind ~round below))
    |> Result.map_error status_frame

(* The one round path.  [produce feed] must call [feed chunk] with the
   round's requests in slot-ordered chunks (the streaming [Entry]
   collector does exactly this) and return once intake is complete;
   each chunk is normalized by the entry ingress policy and crosses the
   link into server 0 as it is fed, so neither the entry tier nor
   server 0 ever holds the whole onion batch. *)
let round_streamed t ~kind ~m ~round ~produce =
  if t.shut_down then Error (status_frame (Rpc.chain_shutdown ~round))
  else begin
    t.delay_ms := 0.;
    let expected =
      Entry.request_len ~chain_len:(length t)
        ~dial_kind:(Server.dial_kind (server t 0)) kind
    in
    let dialing = Round.is_dialing kind in
    Telemetry.span t.tel
      ~name:(if dialing then "dial-round" else "conv-round")
      ~round ~dialing
      (fun () ->
        descend t ~kind ~round ~m ~server:0 (fun push ->
            produce (fun chunk -> push (Entry.normalize ~expected chunk))))
  end

let conversation_round_streamed t ~round ~produce =
  round_streamed t ~kind:Round.Conversation ~m:0 ~round ~produce

let dialing_round_streamed t ~round ~m ~produce =
  round_streamed t ~kind:Round.Dialing ~m ~round ~produce

let conversation_round t ~round requests =
  conversation_round_streamed t ~round ~produce:(fun feed -> feed requests)

let dialing_round t ~round ~m requests =
  dialing_round_streamed t ~round ~m ~produce:(fun feed -> feed requests)

(* Convenience for callers (benchmarks, attack harnesses) that treat a
   framing failure as fatal. *)
let fail_status st = failwith (Format.asprintf "Chain: %a" Rpc.pp_status st)

let conversation_round_exn t ~round requests =
  match conversation_round t ~round requests with
  | Ok replies -> replies
  | Error st -> fail_status st

let dialing_round_exn t ~round ~m requests =
  match dialing_round t ~round ~m requests with
  | Ok replies -> replies
  | Error st -> fail_status st

let fetch_invitations ?dial_round t ~index =
  Server.fetch_invitations ?dial_round (last t) ~index

(* ------------------------------------------------------------------ *)
(* Round aborts                                                        *)
(* ------------------------------------------------------------------ *)

(* Discard a failed round's state on every server so the supervisor's
   retry (under a fresh round number) starts from a clean slate and each
   server redraws its noise for the new attempt. *)

let abort t ~kind ~round = Array.iter (fun h -> Hop.abort h ~kind ~round) t.hops

(* §5.4: "The first server then informs clients of the value of m for a
   given dialing round" — surfaced here for the coordinator. *)
let proposed_m t = Server.proposed_m (last t)

(* Adversary's view of the most recent round (for the attack harness). *)
let observed_histogram t = Server.last_histogram (last t)
