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
  servers : Server.t array;
  pool : Pool.t option;  (** shared by all servers; [None] ⇒ sequential *)
  faults : Fault.injector option;  (** injected at forward link crossings *)
  tap : (round:int -> server:int -> bytes array -> unit) option;
      (** observes every forward batch exactly as it crosses the wire
          (post-tamper, pre-framing) — the tests' wiretap *)
  tel : Telemetry.t option;
      (** shared with the servers; [None] is the nil sink *)
  part_chunk : int option;
      (** onions per part on a relay link; [None]: one part per batch *)
  mutable shut_down : bool;
  mutable delay_ms : float;
      (** virtual link stall accumulated by [Delay_ms] faults during the
          round in flight; reset when a round starts *)
}

let of_config (cfg : Config.t) =
  if cfg.n_servers < 1 then
    invalid_arg "Chain.of_config: need at least one server";
  if cfg.jobs < 1 then invalid_arg "Chain.of_config: jobs must be >= 1";
  (* The servers take turns (the in-process round trip is sequential
     along the chain), so one pool serves them all. *)
  let pool = if cfg.jobs > 1 then Some (Pool.create ~jobs:cfg.jobs) else None in
  (* Build from the last server backwards so each server knows the public
     keys of its downstream suffix. *)
  let servers = Array.make cfg.n_servers None in
  let suffix = ref [] in
  for position = cfg.n_servers - 1 downto 0 do
    let scfg =
      {
        Server.position;
        chain_len = cfg.n_servers;
        noise = cfg.noise;
        dial_noise = cfg.dial_noise;
        noise_mode = cfg.noise_mode;
        dial_kind = cfg.dial_kind;
        jobs = cfg.jobs;
        deaddrop_shards = cfg.deaddrop_shards;
      }
    in
    let rng_seed =
      Option.map
        (fun s ->
          Bytes.cat (Bytes.of_string s)
            (Bytes.of_string (Printf.sprintf "-server-%d" position)))
        cfg.seed
    in
    let server =
      Server.create ?rng_seed ?pool ?telemetry:cfg.telemetry ~cfg:scfg
        ~suffix_pks:!suffix ()
    in
    servers.(position) <- Some server;
    suffix := Server.public_key server :: !suffix
  done;
  {
    servers = Array.map Option.get servers;
    pool;
    faults = Option.map Fault.injector cfg.fault_plan;
    tap = cfg.tap;
    tel = cfg.telemetry;
    part_chunk =
      (if cfg.pipeline then Some (max 1 cfg.pipeline_chunk) else None);
    shut_down = false;
    delay_ms = 0.;
  }

let length t = Array.length t.servers
let server t i = t.servers.(i)
let last t = t.servers.(length t - 1)
let jobs t = match t.pool with Some p -> Pool.jobs p | None -> 1

let shutdown t =
  t.shut_down <- true;
  Option.iter Pool.shutdown t.pool

let is_shut_down t = t.shut_down
let last_round_delay_ms t = t.delay_ms

let pending_faults t =
  match t.faults with None -> 0 | Some inj -> Fault.pending inj

(* Public keys in chain order — what clients onion-wrap against. *)
let public_keys t =
  Array.to_list (Array.map Server.public_key t.servers)

(* Every batch that crosses a link is routed through the Rpc codec, so
   the in-process chain exchanges exactly the bytes a networked
   deployment would (framing, versioning, fixed item sizes).  A frame
   the codec rejects becomes a typed [Rpc.status] error — itself pushed
   through the codec, since a real deployment would send the failure as
   a frame too. *)
let status_frame st =
  match Rpc.decode (Rpc.encode (Rpc.Status st)) with
  | Ok (Rpc.Status st) -> st
  | Ok _ | Error _ -> assert false (* the codec round-trips its own frames *)

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Fault injection at forward links                                    *)
(* ------------------------------------------------------------------ *)

(* Short tag for a fault kind — the metric label and span annotation. *)
let fault_tag = function
  | Fault.Crash -> "crash"
  | Fault.Drop_link -> "drop-link"
  | Fault.Delay_ms _ -> "delay"
  | Fault.Tamper_slot _ -> "tamper-slot"
  | Fault.Corrupt_frame _ -> "corrupt-frame"
  | Fault.Truncate_frame _ -> "truncate-frame"
  | Fault.Extend_frame _ -> "extend-frame"
  | Fault.Slow_link _ -> "slow-link"
  | Fault.Flap _ -> "flap"
  | Fault.Partition _ -> "partition"

(* Every fired fault becomes a counter sample and a span annotation on
   the innermost open span (the round's root span when firing between
   stages); [Delay_ms] additionally feeds its own counter so the virtual
   stall is visible separately from wall-clock timings (which exclude
   it). *)
let record_faults t ~server kinds =
  match (t.tel, kinds) with
  | None, _ | _, [] -> ()
  | Some _, kinds ->
      List.iter
        (fun k ->
          let tag = fault_tag k in
          Telemetry.add_counter t.tel
            ~labels:[ ("kind", tag) ]
            "vuvuzela_faults_injected_total";
          Telemetry.annotate t.tel
            (Printf.sprintf "fault.%s" tag)
            (Printf.sprintf "server=%d" server);
          match k with
          | Fault.Delay_ms ms ->
              Telemetry.add_counter t.tel ~by:(float_of_int ms)
                "vuvuzela_injected_delay_ms_total"
          | Fault.Slow_link ms | Fault.Flap ms | Fault.Partition ms ->
              (* Churn kinds are link stalls: count the event and the
                 stall time so degraded rounds are observable. *)
              Telemetry.add_counter t.tel
                ~labels:[ ("kind", tag) ]
                "vuvuzela_link_stalls_total";
              Telemetry.add_counter t.tel ~by:(float_of_int ms)
                "vuvuzela_injected_delay_ms_total"
          | _ -> ())
        kinds

(* ------------------------------------------------------------------ *)
(* The relay                                                           *)
(* ------------------------------------------------------------------ *)

(* One round's crossing of the link into [server]: the batch goes over
   as ordered [*_batch_part] frames, each peeled into the receiver's
   stream as it lands — the same code path a TCP deployment runs.

   Faults fire once per (round, server) site, when the link opens,
   against the whole logical batch, so they behave the same at any part
   size: crash/drop/partition kill the round before any part crosses,
   [Delay_ms] and the churn stalls accumulate virtual stall time for the
   supervisor's deadline check, frame faults damage the first part's
   frame (the typed rejection is what the receiver produces), and
   [Tamper_slot] flips a byte of the onion at that absolute slot of the
   batch (the §2.1 active adversary — framing survives, authentication
   at the receiver does not), in whichever part carries it.  The tap
   observes each part exactly as it crosses: post-tamper, pre-framing. *)
type link = {
  kind : Round.kind;
  round : int;
  m : int;  (** dialing rounds; [0] for conversation *)
  server : int;
  stream : Server.stream;
  frame_faults : Fault.kind list;
  mutable tampers : int list;  (** absolute slots not yet reached *)
  mutable off : int;  (** onions sent so far = absolute slot offset *)
  mutable seq : int;
}

let link_status ~kind ~round ~server what detail =
  status_frame { Rpc.round; server; stage = Rpc.stage kind what; detail }

let open_link t ~kind ~round ~m ~server =
  let kinds =
    match t.faults with None -> [] | Some inj -> Fault.fire inj ~round ~server
  in
  record_faults t ~server kinds;
  let fatal = ref None and tampers = ref [] and frame_faults = ref [] in
  let stall ms = t.delay_ms <- t.delay_ms +. float_of_int ms in
  List.iter
    (fun k ->
      if !fatal = None then
        match k with
        | Fault.Crash -> fatal := Some "server crashed (injected fault)"
        | Fault.Drop_link -> fatal := Some "link dropped (injected fault)"
        (* A congested link, or a reset that heals: the in-process link
           has no socket to reset, so only the stall is observable. *)
        | Fault.Delay_ms ms | Fault.Slow_link ms | Fault.Flap ms -> stall ms
        | Fault.Partition ms ->
            (* A cut link: the batch is lost and the heal takes [ms]. *)
            stall ms;
            fatal := Some "link partitioned (injected fault)"
        | Fault.Tamper_slot s -> tampers := s :: !tampers
        | (Fault.Corrupt_frame _ | Fault.Truncate_frame _ | Fault.Extend_frame _)
          as k -> frame_faults := k :: !frame_faults)
    kinds;
  let link =
    {
      kind; round; m; server;
      stream = Server.stream t.servers.(server) ~kind ~round;
      frame_faults = List.rev !frame_faults;
      tampers = List.rev !tampers;
      off = 0;
      seq = 0;
    }
  in
  match !fatal with
  | Some detail -> Error (link_status ~kind ~round ~server "batch" detail)
  | None -> Ok link

(* Send [batch] across the link as parts of the chain's part size;
   [last] marks whether the final one closes the batch.  Each part is
   framed, decoded at the receiver and peeled into its stream. *)
let send t link ~last batch =
  let parts =
    Rpc.split_parts
      ~chunk:(Option.value t.part_chunk ~default:(Array.length batch))
      batch
  in
  let n = Array.length parts in
  let fail detail =
    Error
      (link_status ~kind:link.kind ~round:link.round ~server:link.server
         "batch" detail)
  in
  let rec go p =
    if p = n then Ok ()
    else begin
      let len = Array.length parts.(p) in
      let onions, pending =
        Fault.tamper_part ~off:link.off link.tampers parts.(p)
      in
      link.tampers <- pending;
      Option.iter
        (fun tap -> tap ~round:link.round ~server:link.server onions)
        t.tap;
      let frame =
        Rpc.encode
          (Rpc.part link.kind ~round:link.round ~m:link.m ~seq:link.seq
             ~last:(last && p = n - 1) onions)
      in
      let frame =
        if link.seq = 0 then
          List.fold_left Fault.apply_frame frame link.frame_faults
        else frame
      in
      match (link.kind, Rpc.decode frame) with
      | Round.Conversation, Ok (Rpc.Conv_batch_part { onions; _ })
      | Round.Dialing, Ok (Rpc.Dial_batch_part { onions; _ }) ->
          Server.stream_feed t.servers.(link.server) link.stream onions;
          link.off <- link.off + len;
          link.seq <- link.seq + 1;
          go (p + 1)
      | _, Ok _ -> fail "unexpected message"
      | _, Error detail -> fail detail
    end
  in
  go 0

(* The results frame coming back up to [server]. *)
let send_results ~kind ~round ~server replies =
  match (kind, Rpc.decode (Rpc.encode (Rpc.results kind ~round replies))) with
  | Round.Conversation, Ok (Rpc.Conv_results { replies; _ })
  | Round.Dialing, Ok (Rpc.Dial_results { replies; _ }) ->
      Ok replies
  | _, Ok _ ->
      Error (link_status ~kind ~round ~server "results" "unexpected message")
  | _, Error detail -> Error (link_status ~kind ~round ~server "results" detail)

(* Everything from [link]'s receiver down: it finishes its peeled
   stream; a mixing server sends its batch across the next link and
   seals the results that come back, the last server answers. *)
let rec descend t link =
  let srv = t.servers.(link.server) in
  let out = Server.finish srv link.stream ~m:link.m in
  if link.server = length t - 1 then Ok out
  else begin
    let { kind; round; m; server; _ } = link in
    let* next = open_link t ~kind ~round ~m ~server:(server + 1) in
    let* () = send t next ~last:true out in
    let* below = descend t next in
    let* results = send_results ~kind ~round ~server below in
    Ok (Server.backward srv ~kind ~round results)
  end

(* The one round path.  [produce feed] must call [feed chunk] with the
   round's requests in slot-ordered chunks (the streaming [Entry]
   collector does exactly this) and return once intake is complete;
   each chunk is normalized by the entry ingress policy and crosses the
   link into server 0 as it is fed, so neither the entry tier nor
   server 0 ever holds the whole onion batch.  Once the link has failed,
   later chunks are dropped. *)
let round_streamed t ~kind ~m ~round ~produce =
  if t.shut_down then Error (status_frame (Rpc.chain_shutdown ~round))
  else begin
    t.delay_ms <- 0.;
    let expected =
      Entry.request_len ~chain_len:(length t)
        ~dial_kind:(Server.dial_kind t.servers.(0)) kind
    in
    let dialing = Round.is_dialing kind in
    Telemetry.span t.tel
      ~name:(if dialing then "dial-round" else "conv-round")
      ~round ~dialing
      (fun () ->
        let* link = open_link t ~kind ~round ~m ~server:0 in
        let failed = ref None in
        produce (fun chunk ->
            if !failed = None then
              let chunk = Entry.normalize ~expected chunk in
              match send t link ~last:false chunk with
              | Ok () -> ()
              | Error st -> failed := Some st);
        match !failed with Some st -> Error st | None -> descend t link)
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

let abort_round t ~round =
  Array.iter (fun s -> Server.abort_conv_round s ~round) t.servers

let abort_dialing_round t ~round =
  Array.iter (fun s -> Server.abort_dial_round s ~round) t.servers

(* §5.4: "The first server then informs clients of the value of m for a
   given dialing round" — surfaced here for the coordinator. *)
let proposed_m t = Server.proposed_m (last t)

(* Adversary's view of the most recent round (for the attack harness). *)
let observed_histogram t = Server.last_histogram (last t)
