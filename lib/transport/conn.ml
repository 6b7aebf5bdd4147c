(* Framed connection state machine; see the interface for the contract.

   Invariants:
   - [fd = None] exactly in states Connecting (between retries) and
     Closed.
   - [wbuf] holds the partially-written write buffer — one frame, or
     several queued frames coalesced into a single buffer so a burst of
     small frames (pipelined batch parts) costs one [write] instead of
     one syscall each; complete frames wait in [outq].  On disconnect
     [wbuf] is dropped (the peer's view of a half-sent buffer is
     unknowable), [outq] is kept.
   - the decoder is replaced on every new socket: frame boundaries do
     not survive a reconnect. *)

module Drbg = Vuvuzela_crypto.Drbg

(* The redial schedule and the handshake bound; see the interface. *)
let floor_ms = 1.
let cap_ms = 1000.
let handshake_timeout_ms = 5000.

type state = Connecting | Handshaking | Established | Closed

type stats = {
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable reconnects : int;
  mutable outages : int;
  mutable last_outage_ms : float;
  mutable shaped_frames : int;
  mutable shaped_delay_ms : float;
}

let fresh_stats () =
  {
    bytes_in = 0;
    bytes_out = 0;
    frames_in = 0;
    frames_out = 0;
    reconnects = 0;
    outages = 0;
    last_outage_ms = 0.;
    shaped_frames = 0;
    shaped_delay_ms = 0.;
  }

type t = {
  loop : Evloop.t;
  addr : Unix.sockaddr option;  (** [None] for accepted connections *)
  hello : bytes option;
  stats : stats;
  on_established : (t -> bytes -> unit) option;
  on_frame : t -> bytes -> unit;
  on_drop : t -> unit;
  backoff_rng : Drbg.t option;  (** full-jitter draws; [None] = lockstep *)
  shaper : Shaper.t option;
  rbuf : bytes;  (** read scratch *)
  outq : bytes Queue.t;  (** complete encoded frames *)
  mutable fd : Unix.file_descr option;
  mutable st : state;
  mutable dec : Frame.decoder;
  mutable wbuf : bytes;  (** frame being written ([woff] consumed) *)
  mutable woff : int;
  mutable backoff_ms : float;
  mutable timer : int option;  (** pending retry / handshake deadline *)
  mutable up_since : float;  (** when the stream last became established *)
  mutable reconnects : int;
  mutable outage_since : float option;
      (** when an established stream was lost, until re-established *)
}

let state t = t.st
let reconnects t = t.reconnects

let queued t =
  Queue.length t.outq + if Bytes.length t.wbuf > t.woff then 1 else 0

let cancel_timer t =
  Option.iter (Evloop.cancel t.loop) t.timer;
  t.timer <- None

let close_socket t =
  match t.fd with
  | None -> ()
  | Some fd ->
      Evloop.remove_fd t.loop fd;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.fd <- None

(* Pull the next write buffer off the queue, folding as many queued
   frames as fit under the budget into one buffer.  Capped so a slow
   peer cannot make us commit unbounded bytes to an unrecoverable
   half-sent buffer. *)
let coalesce_budget = 256 * 1024

let next_write_buffer t =
  let first = Queue.pop t.outq in
  if Queue.is_empty t.outq || Bytes.length first >= coalesce_budget then first
  else begin
    let total = ref (Bytes.length first) in
    let rev_parts = ref [ first ] in
    let fits () =
      (not (Queue.is_empty t.outq))
      && !total + Bytes.length (Queue.peek t.outq) <= coalesce_budget
    in
    while fits () do
      let part = Queue.pop t.outq in
      rev_parts := part :: !rev_parts;
      total := !total + Bytes.length part
    done;
    match !rev_parts with
    | [ single ] -> single
    | rev_parts ->
        let buf = Bytes.create !total in
        let (_ : int) =
          List.fold_left
            (fun tail part ->
              let len = Bytes.length part in
              let off = tail - len in
              Bytes.blit part 0 buf off len;
              off)
            !total rev_parts
        in
        buf
  end

(* Write as much pending output as the socket accepts; toggle write
   interest accordingly.  Raises Unix_error on a dead peer — callers
   route that through their disconnect path. *)
let rec flush_output t fd =
  if Bytes.length t.wbuf = t.woff then
    if
      (* Only an established (or still-handshaking hello) stream may pull
         queued frames; queued data otherwise waits for the handshake. *)
      t.st = Established && not (Queue.is_empty t.outq)
    then begin
      t.wbuf <- next_write_buffer t;
      t.woff <- 0;
      flush_output t fd
    end
    else Evloop.want_write t.loop fd false
  else
    let n = Bytes.length t.wbuf - t.woff in
    match Unix.write fd t.wbuf t.woff n with
    | written ->
        t.stats.bytes_out <- t.stats.bytes_out + written;
        t.woff <- t.woff + written;
        if written = n then flush_output t fd
        else Evloop.want_write t.loop fd true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Evloop.want_write t.loop fd true

let enqueue_frame t frame =
  Queue.push frame t.outq;
  match t.fd with
  | Some fd when t.st = Established -> (
      try flush_output t fd with Unix.Unix_error _ -> ())
      (* a write error here also surfaces via on_readable EOF *)
  | _ -> ()

let send t payload =
  match t.st with
  | Closed -> ()
  | _ -> (
      let frame = Frame.encode payload in
      t.stats.frames_out <- t.stats.frames_out + 1;
      match t.shaper with
      | None -> enqueue_frame t frame
      | Some sh ->
          (* Link emulation: hold the frame off the wire until its
             release instant.  Release times are monotonic per shaper,
             and the loop fires equal-deadline timers in registration
             order, so shaped frames keep their FIFO order. *)
          let delay =
            Shaper.delay_ms sh ~now_ms:(Clock.now_ms ())
              ~bytes:(Bytes.length frame)
          in
          if delay <= 0. then enqueue_frame t frame
          else begin
            t.stats.shaped_frames <- t.stats.shaped_frames + 1;
            t.stats.shaped_delay_ms <- t.stats.shaped_delay_ms +. delay;
            ignore
              (Evloop.after t.loop ~ms:delay (fun () ->
                   if t.st <> Closed then enqueue_frame t frame))
          end)

(* ------------------------------------------------------------------ *)
(* Dialer lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let rec start_connect t =
  cancel_timer t;
  if t.st <> Closed then begin
    let addr = Option.get t.addr in
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    t.fd <- Some fd;
    t.st <- Connecting;
    t.dec <- Frame.decoder ();
    t.wbuf <- Bytes.empty;
    t.woff <- 0;
    Evloop.add_fd t.loop fd
      ~on_readable:(fun () -> on_readable t fd)
      ~on_writable:(fun () -> on_writable t fd);
    (* The whole connect + handshake must finish inside the deadline. *)
    t.timer <-
      Some
        (Evloop.after t.loop ~ms:handshake_timeout_ms (fun () ->
             t.timer <- None;
             if t.st = Connecting || t.st = Handshaking then retry t));
    match Unix.connect fd addr with
    | () -> on_connected t fd
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
      ->
        Evloop.want_write t.loop fd true
    | exception Unix.Unix_error _ -> retry t
  end

and retry t =
  close_socket t;
  cancel_timer t;
  if t.st <> Closed then begin
    t.st <- Connecting;
    t.reconnects <- t.reconnects + 1;
    t.stats.reconnects <- t.stats.reconnects + 1;
    (* Full jitter: draw uniformly in [floor, cap) so a fleet of clients
       redialing a restarted server spreads out instead of storming it
       in lockstep.  The draw comes from a per-connection DRBG, so a
       seeded run replays the same delays. *)
    let cap = t.backoff_ms in
    let delay =
      match t.backoff_rng with
      | None -> cap
      | Some rng -> floor_ms +. (Drbg.float_unit ~rng () *. (cap -. floor_ms))
    in
    t.backoff_ms <- Float.min cap_ms (cap *. 2.);
    t.timer <-
      Some
        (Evloop.after t.loop ~ms:delay (fun () ->
             t.timer <- None;
             start_connect t))
  end

(* An established stream died (EOF, reset, poisoned framing): notify,
   then redial.  Queued frames survive; the half-written one does not.
   Only a stream that stayed up for a whole cap redials from the floor:
   a peer that answers the hello and hangs up at once is redialed on the
   doubling schedule, not every [floor_ms]. *)
and drop_established t =
  close_socket t;
  t.wbuf <- Bytes.empty;
  t.woff <- 0;
  t.st <- Connecting;
  if Clock.elapsed_ms ~since:t.up_since >= cap_ms then t.backoff_ms <- floor_ms;
  if t.outage_since = None then t.outage_since <- Some (Clock.now_ms ());
  t.on_drop t;
  retry t

and on_connected t fd =
  t.st <- Handshaking;
  (match t.hello with
  | Some hello ->
      t.wbuf <- Frame.encode hello;
      t.woff <- 0;
      t.stats.frames_out <- t.stats.frames_out + 1
  | None -> ());
  (try flush_output t fd with Unix.Unix_error _ -> retry t)

and on_writable t fd =
  match t.st with
  | Connecting -> (
      match Unix.getsockopt_error fd with
      | None -> on_connected t fd
      | Some _ -> retry t)
  | Handshaking | Established -> (
      try flush_output t fd
      with Unix.Unix_error _ ->
        if t.st = Established then drop_established t else retry t)
  | Closed -> ()

and on_readable t fd =
  let disconnected () =
    if t.st = Established then drop_established t
    else if t.st <> Closed then retry t
  in
  match Unix.read fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> disconnected ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> disconnected ()
  | n ->
      t.stats.bytes_in <- t.stats.bytes_in + n;
      Frame.feed t.dec t.rbuf ~off:0 ~len:n;
      drain_frames t fd

and drain_frames t fd =
  match Frame.next t.dec with
  | Error _ ->
      (* Oversized length prefix: the stream cannot be resynchronized. *)
      if t.st = Established then drop_established t
      else if t.st <> Closed then retry t
  | Ok None -> ()
  | Ok (Some payload) ->
      t.stats.frames_in <- t.stats.frames_in + 1;
      (match t.st with
      | Handshaking ->
          cancel_timer t;
          t.st <- Established;
          t.up_since <- Clock.now_ms ();
          (match t.outage_since with
          | Some since ->
              t.outage_since <- None;
              t.stats.outages <- t.stats.outages + 1;
              t.stats.last_outage_ms <- Clock.elapsed_ms ~since
          | None -> ());
          Option.iter (fun f -> f t payload) t.on_established;
          (* Frames queued while disconnected flush now, in order. *)
          if t.st = Established then (
            try flush_output t fd with Unix.Unix_error _ -> ())
      | Established | Connecting | Closed -> t.on_frame t payload);
      if t.st <> Closed && t.fd = Some fd then drain_frames t fd

let dial ~loop ~addr ~hello ?(stats = fresh_stats ()) ?backoff_seed ?shaper
    ~on_established ~on_frame ~on_drop () =
  let t =
    {
      loop;
      addr = Some addr;
      hello = Some hello;
      stats;
      on_established = Some on_established;
      on_frame;
      on_drop;
      backoff_rng = Option.map Drbg.of_string backoff_seed;
      shaper;
      rbuf = Bytes.create 65536;
      outq = Queue.create ();
      fd = None;
      st = Connecting;
      dec = Frame.decoder ();
      wbuf = Bytes.empty;
      woff = 0;
      backoff_ms = floor_ms;
      timer = None;
      up_since = 0.;
      reconnects = 0;
      outage_since = None;
    }
  in
  start_connect t;
  t

(* ------------------------------------------------------------------ *)
(* Accepted connections                                                *)
(* ------------------------------------------------------------------ *)

let of_fd ~loop ~fd ?(stats = fresh_stats ()) ?shaper ~on_frame ~on_drop () =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let t =
    {
      loop;
      addr = None;
      hello = None;
      stats;
      on_established = None;
      on_frame;
      on_drop;
      backoff_rng = None;
      shaper;
      rbuf = Bytes.create 65536;
      outq = Queue.create ();
      fd = Some fd;
      st = Established;
      dec = Frame.decoder ();
      wbuf = Bytes.empty;
      woff = 0;
      backoff_ms = floor_ms;
      timer = None;
      up_since = 0.;
      reconnects = 0;
      outage_since = None;
    }
  in
  let teardown () =
    if t.st <> Closed then begin
      t.st <- Closed;
      close_socket t;
      t.on_drop t
    end
  in
  Evloop.add_fd loop fd
    ~on_readable:(fun () ->
      match Unix.read fd t.rbuf 0 (Bytes.length t.rbuf) with
      | 0 -> teardown ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error _ -> teardown ()
      | n -> (
          t.stats.bytes_in <- t.stats.bytes_in + n;
          Frame.feed t.dec t.rbuf ~off:0 ~len:n;
          let rec drain () =
            match Frame.next t.dec with
            | Error _ -> teardown ()
            | Ok None -> ()
            | Ok (Some payload) ->
                t.stats.frames_in <- t.stats.frames_in + 1;
                t.on_frame t payload;
                if t.st <> Closed then drain ()
          in
          drain ()))
    ~on_writable:(fun () ->
      try flush_output t fd with Unix.Unix_error _ -> teardown ());
  t

let close t =
  if t.st <> Closed then begin
    cancel_timer t;
    (* Give a final best-effort push to anything already queued (Bye
       frames at shutdown); a blocked socket just loses it. *)
    (match t.fd with
    | Some fd when t.st = Established -> (
        try flush_output t fd with Unix.Unix_error _ -> ())
    | _ -> ());
    t.st <- Closed;
    close_socket t;
    Queue.clear t.outq;
    t.wbuf <- Bytes.empty;
    t.woff <- 0
  end
