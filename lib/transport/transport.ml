(* Endpoint facade over Evloop/Conn/Frame; see the interface. *)

module Telemetry = Vuvuzela_telemetry.Telemetry

type t = {
  loop : Evloop.t;
  stats : Conn.stats;
  tel : Telemetry.t option;
  hub : Conn.hub option;  (** [Some] in process: links in memory *)
}

let create ?telemetry () =
  (* A dying peer must be an EPIPE on its connection, not a fatal
     signal.  Idempotent; Windows has no SIGPIPE, hence the try. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  { loop = Evloop.create (); stats = Conn.fresh_stats (); tel = telemetry;
    hub = None }

let in_process ?telemetry () =
  {
    loop = Evloop.create ~virtual_clock:true ();
    stats = Conn.fresh_stats ();
    tel = telemetry;
    hub = Some (Conn.hub ());
  }

let loop t = t.loop
let stats t = t.stats
let now_ms t = Evloop.now_ms t.loop
let skipped_ms t = Evloop.skipped_ms t.loop
let sleep t ~ms = Evloop.sleep t.loop ~ms
let run_once ?max_wait_ms t = Evloop.run_once ?max_wait_ms t.loop
let run_until ?deadline_ms t pred = Evloop.run_until ?deadline_ms t.loop pred

let publish t =
  match t.tel with
  | None -> ()
  | Some _ ->
      let s = t.stats in
      let g name v = Telemetry.set_gauge t.tel name (float_of_int v) in
      let gf name v = Telemetry.set_gauge t.tel name v in
      g "vuvuzela_net_bytes_in" s.Conn.bytes_in;
      g "vuvuzela_net_bytes_out" s.Conn.bytes_out;
      g "vuvuzela_net_frames_in" s.Conn.frames_in;
      g "vuvuzela_net_frames_out" s.Conn.frames_out;
      g "vuvuzela_net_reconnects" s.Conn.reconnects;
      g "vuvuzela_net_outages" s.Conn.outages;
      gf "vuvuzela_net_reconnect_storm_ms" s.Conn.last_outage_ms;
      g "vuvuzela_net_link_stalls" s.Conn.shaped_frames;
      gf "vuvuzela_net_shaped_delay_ms" s.Conn.shaped_delay_ms

(* ------------------------------------------------------------------ *)
(* Listening                                                           *)
(* ------------------------------------------------------------------ *)

type listener = Unix.file_descr option

let listen t addr ?(backlog = 8) ~on_accept ~on_frame ~on_drop () =
  match t.hub with
  | Some hub ->
      Conn.serve hub ~loop:t.loop ~addr ~stats:t.stats
        ~on_accept:(fun c -> on_accept c addr)
        ~on_frame ~on_drop ();
      Ok None
  | None -> (
  match
    let lfd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt lfd Unix.SO_REUSEADDR true;
       Unix.bind lfd addr;
       Unix.listen lfd backlog;
       Unix.set_nonblock lfd
     with e ->
       (try Unix.close lfd with Unix.Unix_error _ -> ());
       raise e);
    Evloop.add_fd t.loop lfd
      ~on_readable:(fun () ->
        match Unix.accept lfd with
        | fd, peer ->
            on_accept
              (Conn.of_fd ~loop:t.loop ~fd ~stats:t.stats ~on_frame ~on_drop ())
              peer
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> ())
      ~on_writable:(fun () -> ());
    lfd
  with
  | l -> Ok (Some l)
  | exception Unix.Unix_error (err, fn, _) ->
      Error
        (Printf.sprintf "listen %s: %s in %s" (Addr.to_string addr)
           (Unix.error_message err) fn))

let dial t ~addr ~hello ?backoff_seed ?shaper ~on_established ~on_frame
    ~on_drop () =
  let shaper =
    match shaper with
    | Some cfg when not (Shaper.is_transparent cfg) ->
        Some (Shaper.create cfg)
    | Some _ | None -> None
  in
  Conn.dial ~loop:t.loop ~addr ~hello ?hub:t.hub ~stats:t.stats ?backoff_seed
    ?shaper ~on_established ~on_frame ~on_drop ()
