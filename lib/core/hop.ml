(* One chain server's half of a round, driven by each daemon; see the
   interface. *)

module Fault = Vuvuzela_faults.Fault
module Telemetry = Vuvuzela_telemetry.Telemetry

type fired = { kinds : Fault.kind list; stall_ms : int; reset : bool }

(* The round now arriving: its faults fired at part 0, and each part
   peels into [stream] as it lands. *)
type ingress = {
  kind : Round.kind;
  round : int;
  m : int;  (** dialing rounds, as part 0 decoded; [0] for conversation *)
  stream : Server.stream;
  mutable seq : int;  (** the next part expected *)
  mutable off : int;  (** onions fed so far = absolute slot of the next *)
  mutable tampers : int list;  (** [Tamper_slot] slots not yet reached *)
}

type t = {
  server : Server.t;
  position : int;
  faults : Fault.injector option;
  tap : (round:int -> server:int -> bytes array -> unit) option;
  on_fire : fired -> unit;
  tel : Telemetry.t option;
  mutable ingress : ingress option;
}

type step =
  | Absorbed
  | Finished of bytes array
  | Rejected of Rpc.status
  | Dropped of Rpc.status
  | Ignored

let create ?pool ?faults ?tap ?(on_fire = fun _ -> ()) (cfg : Config.t)
    ~position ~suffix_pks =
  let rng_seed =
    Option.map
      (fun s -> Bytes.of_string (Printf.sprintf "%s-server-%d" s position))
      cfg.seed
  in
  let server =
    Server.create ?rng_seed ?pool ?telemetry:cfg.telemetry ~suffix_pks
      ~cfg:
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
      ()
  in
  { server; position; faults; tap; on_fire; tel = cfg.telemetry; ingress = None }

let server t = t.server

let status t ~kind ~round what detail =
  { Rpc.round; server = t.position; stage = Rpc.stage kind what; detail }

(* Short tag for a fault kind: the metric label and span annotation. *)
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

(* Every fired fault becomes a counter sample and an annotation on the
   innermost open span; stalls also feed their own counters, so a
   degraded round is visible apart from its wall-clock timings. *)
let record_faults t kinds =
  List.iter
    (fun k ->
      let tag = fault_tag k in
      Telemetry.add_counter t.tel ~labels:[ ("kind", tag) ]
        "vuvuzela_faults_injected_total";
      Telemetry.annotate t.tel ("fault." ^ tag)
        (Printf.sprintf "server=%d" t.position);
      match k with
      | Fault.Delay_ms ms ->
          Telemetry.add_counter t.tel ~by:(float_of_int ms)
            "vuvuzela_injected_delay_ms_total"
      | Fault.Slow_link ms | Fault.Flap ms | Fault.Partition ms ->
          Telemetry.add_counter t.tel ~labels:[ ("kind", tag) ]
            "vuvuzela_link_stalls_total";
          Telemetry.add_counter t.tel ~by:(float_of_int ms)
            "vuvuzela_injected_delay_ms_total"
      | _ -> ())
    kinds

(* One decoded part of the open round: check it, tamper the slots it
   carries, peel it, and finish the round on the part that says [last]. *)
let feed t g msg =
  let fail detail =
    t.ingress <- None;
    Rejected (status t ~kind:g.kind ~round:g.round "batch" detail)
  in
  match (Rpc.part_header msg, msg) with
  | ( Some (kind, round, _, seq),
      (Rpc.Conv_batch_part { last; onions; _ }
      | Rpc.Dial_batch_part { last; onions; _ }) )
    when kind = g.kind && round = g.round -> (
      if seq <> g.seq then
        (* Ordered link: a sequence gap is a protocol violation. *)
        fail (Printf.sprintf "part %d arrived, expected %d" seq g.seq)
      else
        let len = Array.length onions in
        let onions, pending = Fault.tamper_part ~off:g.off g.tampers onions in
        g.tampers <- pending;
        Option.iter (fun tap -> tap ~round ~server:t.position onions) t.tap;
        match Server.stream_feed t.server g.stream onions with
        | exception e -> fail (Printexc.to_string e)
        | () when not last ->
            g.seq <- seq + 1;
            g.off <- g.off + len;
            Absorbed
        | () -> (
            t.ingress <- None;
            match Server.finish t.server g.stream ~m:g.m with
            | out -> Finished out
            | exception e -> fail (Printexc.to_string e)))
  | _ -> fail "unexpected message"

(* Part 0 of a round: fire the site's faults, let the driver act on the
   stalls and resets, then decode what the faulty wire delivered. *)
let open_round t ~kind ~round raw msg =
  t.ingress <- None;
  let kinds =
    match t.faults with
    | None -> []
    | Some inj -> Fault.fire inj ~round ~server:t.position
  in
  let lost = ref None and stall = ref 0 and reset = ref false in
  let tampers = ref [] and frame = ref [] in
  let lose detail = if !lost = None then lost := Some detail in
  List.iter
    (fun k ->
      match k with
      | Fault.Crash ->
          lose "server crashed (injected fault)";
          reset := true
      | Fault.Drop_link -> lose "link dropped (injected fault)"
      (* A congested link: the batch arrives, late. *)
      | Fault.Delay_ms ms | Fault.Slow_link ms -> stall := !stall + ms
      (* A reset that heals: nothing is lost but time. *)
      | Fault.Flap ms ->
          stall := !stall + ms;
          reset := true
      (* A cut link: the batch is lost and the heal takes [ms]. *)
      | Fault.Partition ms ->
          lose "link partitioned (injected fault)";
          stall := !stall + ms;
          reset := true
      | Fault.Tamper_slot s -> tampers := s :: !tampers
      | Fault.Corrupt_frame _ | Fault.Truncate_frame _ | Fault.Extend_frame _
        ->
          frame := k :: !frame)
    kinds;
  if kinds <> [] then begin
    t.on_fire { kinds; stall_ms = !stall; reset = !reset };
    record_faults t kinds
  end;
  match !lost with
  | Some detail -> Dropped (status t ~kind ~round "batch" detail)
  | None -> (
      let decoded =
        if !frame = [] then Ok msg
        else Rpc.decode (List.fold_left Fault.apply_frame raw (List.rev !frame))
      in
      match decoded with
      | Error detail -> Rejected (status t ~kind ~round "batch" detail)
      | Ok msg ->
          let m = match Rpc.part_header msg with Some (_, _, m, _) -> m | None -> 0 in
          let g =
            {
              kind; round; m;
              stream = Server.stream t.server ~kind ~round;
              seq = 0;
              off = 0;
              tampers = List.rev !tampers;
            }
          in
          t.ingress <- Some g;
          feed t g msg)

let arrive t ?msg raw =
  match match msg with Some msg -> Ok msg | None -> Rpc.decode raw with
  | Error detail ->
      Rejected { Rpc.round = 0; server = t.position; stage = "frame"; detail }
  | Ok msg -> (
      match Rpc.part_header msg with
      | None -> Ignored
      | Some (kind, round, _, seq) -> (
          (* A part of another round supersedes the stale one: the
             supervisor moved on (its abort may have been lost with a
             link). *)
          (match t.ingress with
          | Some g when g.round <> round || g.kind <> kind -> t.ingress <- None
          | _ -> ());
          match t.ingress with
          | _ when seq = 0 -> open_round t ~kind ~round raw msg
          | Some g -> feed t g msg
          | None -> Ignored))

let backward t ~kind ~round ?msg raw =
  let fail detail = Error (status t ~kind ~round "results" detail) in
  match (kind, match msg with Some msg -> Ok msg | None -> Rpc.decode raw) with
  | Round.Conversation, Ok (Rpc.Conv_results { round = r; replies })
  | Round.Dialing, Ok (Rpc.Dial_results { round = r; replies })
    when r = round -> (
      match Server.backward t.server ~kind ~round replies with
      | replies -> Ok replies
      | exception e -> fail (Printexc.to_string e))
  | _, Ok _ -> fail "unexpected message"
  | _, Error detail -> fail detail

let abort t ~kind ~round =
  (match t.ingress with
  | Some g when g.kind = kind && g.round = round -> t.ingress <- None
  | _ -> ());
  match kind with
  | Round.Conversation -> Server.abort_conv_round t.server ~round
  | Round.Dialing -> Server.abort_dial_round t.server ~round
