(* The chain of Vuvuzela servers in one process (§3, §7): one daemon per
   server and the coordinator's link end on one in-memory transport, so
   a round crosses exactly the links, frames and fault handling of a
   multi-process deployment, on a virtual clock. *)

module Pool = Vuvuzela_parallel.Pool
module Fault = Vuvuzela_faults.Fault
module Transport = Vuvuzela_transport.Transport

type t = {
  daemons : Daemon.t array;  (** one per server, in chain order *)
  remote : Remote.t;  (** the coordinator's link to server 0 *)
  pool : Pool.t option;  (** shared by all servers; [None] ⇒ sequential *)
  faults : Fault.injector option;  (** shared by all servers *)
  mutable shut_down : bool;
}

(* Addresses are names on the chain's own endpoint. *)
let addr i = Unix.ADDR_UNIX (Printf.sprintf "vuvuzela-server-%d" i)

let of_config (cfg : Config.t) =
  if cfg.n_servers < 1 then
    invalid_arg "Chain.of_config: need at least one server";
  if cfg.jobs < 1 then invalid_arg "Chain.of_config: jobs must be >= 1";
  let fail e = failwith ("Chain.of_config: " ^ e) in
  let n = cfg.n_servers in
  (* The servers take turns (a round crosses them one after another),
     so one pool serves them all. *)
  let pool = if cfg.jobs > 1 then Some (Pool.create ~jobs:cfg.jobs) else None in
  let faults = Option.map Fault.injector cfg.fault_plan in
  let tp = Transport.in_process ?telemetry:cfg.telemetry () in
  (* Downstream first, so each server's dial finds its successor
     listening; keys then assemble bottom-up over the handshakes. *)
  let daemons = ref [] in
  for i = n - 1 downto 0 do
    match
      Daemon.start tp ?pool ?faults
        {
          Daemon.listen = addr i;
          next = (if i = n - 1 then None else Some (addr (i + 1)));
          index = i;
          deployment = cfg;
          metrics_listen = None;
          trace_out = None;
        }
    with
    | Ok d -> daemons := d :: !daemons
    | Error e -> fail e
  done;
  let daemons = Array.of_list !daemons in
  let backoff_seed, link = Remote.link_of cfg ~tag:"coordinator" in
  match
    Remote.connect ~transport:tp ?telemetry:cfg.telemetry
      ~dial_kind:cfg.dial_kind ~handshake_timeout_ms:cfg.handshake_timeout_ms
      ?backoff_seed ?link ~flap_grace_ms:cfg.flap_grace_ms ~addr:(addr 0) ()
  with
  | Error e -> fail e
  | Ok remote ->
      Remote.set_pipeline remote (Config.part_chunk cfg);
      (* The handshake reply comes only once every server has its keys,
         so every daemon's server exists now. *)
      { daemons; remote; pool; faults; shut_down = false }

let length t = Array.length t.daemons
let server t i = Option.get (Daemon.server t.daemons.(i))
let last t = server t (length t - 1)
let remote t = t.remote
let jobs t = match t.pool with Some p -> Pool.jobs p | None -> 1

let shutdown t =
  if not t.shut_down then begin
    t.shut_down <- true;
    Remote.shutdown t.remote;
    Array.iter Daemon.close t.daemons;
    Option.iter Pool.shutdown t.pool
  end

let is_shut_down t = t.shut_down

let pending_faults t =
  match t.faults with None -> 0 | Some inj -> Fault.pending inj

let public_keys t = Remote.public_keys t.remote

let conversation_round_streamed t ~round ~produce =
  Remote.conversation_round_streamed t.remote ~round ~produce

let dialing_round_streamed t ~round ~m ~produce =
  Remote.dialing_round_streamed t.remote ~round ~m ~produce

(* A direct read of the last server: a client's download does not cross
   the chain's links. *)
let fetch_invitations ?dial_round t ~index =
  Server.fetch_invitations ?dial_round (last t) ~index

(* §5.4: "The first server then informs clients of the value of m for a
   given dialing round" — surfaced here for the coordinator. *)
let proposed_m t = Server.proposed_m (last t)

(* Adversary's view of the most recent round (for the attack harness). *)
let observed_histogram t = Server.last_histogram (last t)
