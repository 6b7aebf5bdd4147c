(* Framed connection state machine; see the interface for the contract.

   Invariants:
   - [io = None] exactly in states Connecting (between retries) and
     Closed.
   - On a socket, [wbuf] holds the partially-written write buffer — one
     frame, or several queued frames coalesced into a single buffer so a
     burst of small frames (pipelined batch parts) costs one [write]
     instead of one syscall each; complete frames wait in [outq].  On
     disconnect [wbuf] is dropped (the peer's view of a half-sent buffer
     is unknowable), [outq] is kept.  The decoder is replaced on every
     new socket: frame boundaries do not survive a reconnect.
   - On an in-memory link, [outq] holds payloads and each leaves as one
     posted delivery to the peer end; a delivery, like the end-of-stream
     that follows a close, only lands while the peer is still linked to
     this end, so a reconnect loses what the old link had in flight. *)

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
  hub : hub option;  (** [Some] for an in-memory link *)
  hello : bytes option;
  stats : stats;
  on_established : (t -> bytes -> unit) option;
  on_frame : t -> bytes -> unit;
  on_drop : t -> unit;
  backoff_rng : Drbg.t option;  (** full-jitter draws; [None] = lockstep *)
  shaper : Shaper.t option;
  outq : bytes Queue.t;
      (** complete encoded frames on a socket, payloads in memory *)
  mutable io : io option;
  mutable st : state;
  mutable backoff_ms : float;
  mutable timer : int option;  (** pending retry / handshake deadline *)
  mutable up_since : float;  (** when the stream last became established *)
  mutable reconnects : int;
  mutable outage_since : float option;
      (** when an established stream was lost, until re-established *)
}

and io = Socket of socket | Pipe of t  (** the other end of the link *)

and socket = {
  fd : Unix.file_descr;
  rbuf : bytes;  (** read scratch *)
  dec : Frame.decoder;
  mutable wbuf : bytes;  (** frame being written ([woff] consumed) *)
  mutable woff : int;
}

(* Listening addresses of an in-process network: each accepts a dialer
   by creating the linked end. *)
and hub = (Unix.sockaddr, t -> t) Hashtbl.t

let hub () : hub = Hashtbl.create 8
let state t = t.st
let reconnects t = t.reconnects

let cancel_timer t =
  Option.iter (Evloop.cancel t.loop) t.timer;
  t.timer <- None

let socket fd =
  { fd; rbuf = Bytes.create 65536; dec = Frame.decoder (); wbuf = Bytes.empty; woff = 0 }

(* ------------------------------------------------------------------ *)
(* Sockets                                                             *)
(* ------------------------------------------------------------------ *)

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
let rec flush_socket t s =
  if Bytes.length s.wbuf = s.woff then
    if
      (* Only an established (or still-handshaking hello) stream may pull
         queued frames; queued data otherwise waits for the handshake. *)
      t.st = Established && not (Queue.is_empty t.outq)
    then begin
      s.wbuf <- next_write_buffer t;
      s.woff <- 0;
      flush_socket t s
    end
    else Evloop.want_write t.loop s.fd false
  else
    let n = Bytes.length s.wbuf - s.woff in
    match Unix.write s.fd s.wbuf s.woff n with
    | written ->
        t.stats.bytes_out <- t.stats.bytes_out + written;
        s.woff <- s.woff + written;
        if written = n then flush_socket t s
        else Evloop.want_write t.loop s.fd true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Evloop.want_write t.loop s.fd true

(* ------------------------------------------------------------------ *)
(* In-memory links                                                     *)
(* ------------------------------------------------------------------ *)

let linked t peer = match t.io with Some (Pipe p) -> p == peer | _ -> false
let on_socket t s = match t.io with Some (Socket s') -> s' == s | _ -> false

(* One payload to the peer end, on the next dispatch: never inside the
   sender's call.  Counted as the framed bytes a socket would carry. *)
let deliver t peer payload ~receive =
  let wire = Frame.header_len + Bytes.length payload in
  t.stats.bytes_out <- t.stats.bytes_out + wire;
  Evloop.post t.loop (fun () ->
      if linked peer t && peer.st <> Closed then begin
        peer.stats.bytes_in <- peer.stats.bytes_in + wire;
        receive peer payload
      end)

(* The end-of-stream a close sends after everything queued before it. *)
let hang_up t peer ~disconnected =
  Evloop.post t.loop (fun () -> if linked peer t then disconnected peer)

(* ------------------------------------------------------------------ *)
(* Both media                                                          *)
(* ------------------------------------------------------------------ *)

let close_io t ~disconnected =
  match t.io with
  | None -> ()
  | Some (Socket s) ->
      Evloop.remove_fd t.loop s.fd;
      (try Unix.close s.fd with Unix.Unix_error _ -> ());
      t.io <- None
  | Some (Pipe peer) ->
      t.io <- None;
      hang_up t peer ~disconnected

(* Push queued output onto the medium; only an established stream may
   pull from the queue. *)
let flush t ~receive =
  match t.io with
  | Some (Socket s) -> flush_socket t s
  | Some (Pipe peer) when t.st = Established ->
      while not (Queue.is_empty t.outq) do
        deliver t peer (Queue.pop t.outq) ~receive
      done
  | Some (Pipe _) | None -> ()

(* The bytes an outgoing item occupies on a socket: items are framed
   already there, bare payloads in memory. *)
let wire_len t item =
  Bytes.length item + match t.hub with Some _ -> Frame.header_len | None -> 0

(* ------------------------------------------------------------------ *)
(* The state machine                                                   *)
(* ------------------------------------------------------------------ *)

let rec enqueue t item =
  Queue.push item t.outq;
  if t.st = Established then
    try flush t ~receive with Unix.Unix_error _ -> ()
  (* a write error here also surfaces via on_readable EOF *)

and send t payload =
  match t.st with
  | Closed -> ()
  | _ -> (
      let item =
        match t.hub with
        | None -> Frame.encode payload
        | Some _ ->
            if Bytes.length payload > Frame.max_payload then
              invalid_arg "Conn.send: payload exceeds Frame.max_payload";
            payload
      in
      t.stats.frames_out <- t.stats.frames_out + 1;
      match t.shaper with
      | None -> enqueue t item
      | Some sh ->
          (* Link emulation: hold the frame off the wire until its
             release instant.  Release times are monotonic per shaper,
             and the loop fires equal-deadline timers in registration
             order, so shaped frames keep their FIFO order. *)
          let delay =
            Shaper.delay_ms sh ~now_ms:(Evloop.now_ms t.loop)
              ~bytes:(wire_len t item)
          in
          if delay <= 0. then enqueue t item
          else begin
            t.stats.shaped_frames <- t.stats.shaped_frames + 1;
            t.stats.shaped_delay_ms <- t.stats.shaped_delay_ms +. delay;
            ignore
              (Evloop.after t.loop ~ms:delay (fun () ->
                   if t.st <> Closed then enqueue t item))
          end)

(* A payload that arrived: the handshake reply of a dialer, or a frame. *)
and receive t payload =
  t.stats.frames_in <- t.stats.frames_in + 1;
  match t.st with
  | Handshaking ->
      cancel_timer t;
      t.st <- Established;
      t.up_since <- Evloop.now_ms t.loop;
      (match t.outage_since with
      | Some since ->
          t.outage_since <- None;
          t.stats.outages <- t.stats.outages + 1;
          t.stats.last_outage_ms <- Evloop.now_ms t.loop -. since
      | None -> ());
      Option.iter (fun f -> f t payload) t.on_established;
      (* Frames queued while disconnected flush now, in order. *)
      if t.st = Established then (
        try flush t ~receive with Unix.Unix_error _ -> ())
  | Established | Connecting | Closed -> t.on_frame t payload

(* The stream ended under us: an accepted end is done, a dialer redials. *)
and disconnected t =
  match t.addr with
  | None ->
      if t.st <> Closed then begin
        t.st <- Closed;
        close_io t ~disconnected;
        t.on_drop t
      end
  | Some _ ->
      if t.st = Established then drop_established t
      else if t.st <> Closed then retry t

(* ------------------------------------------------------------------ *)
(* Dialer lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

and start_connect t =
  cancel_timer t;
  if t.st <> Closed then begin
    let addr = Option.get t.addr in
    t.st <- Connecting;
    (* The whole connect + handshake must finish inside the deadline. *)
    t.timer <-
      Some
        (Evloop.after t.loop ~ms:handshake_timeout_ms (fun () ->
             t.timer <- None;
             if t.st = Connecting || t.st = Handshaking then retry t));
    match t.hub with
    | Some hub -> (
        match Hashtbl.find_opt hub addr with
        | None -> retry t (* refused: nobody listens there *)
        | Some accept ->
            t.io <- Some (Pipe (accept t));
            on_connected t)
    | None -> (
        let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let s = socket fd in
        t.io <- Some (Socket s);
        Evloop.add_fd t.loop fd
          ~on_readable:(fun () -> on_readable t s)
          ~on_writable:(fun () -> on_writable t s);
        match Unix.connect fd addr with
        | () -> on_connected t
        | exception
            Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
            Evloop.want_write t.loop fd true
        | exception Unix.Unix_error _ -> retry t)
  end

and retry t =
  close_io t ~disconnected;
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
  close_io t ~disconnected;
  t.st <- Connecting;
  let now = Evloop.now_ms t.loop in
  if now -. t.up_since >= cap_ms then t.backoff_ms <- floor_ms;
  if t.outage_since = None then t.outage_since <- Some now;
  t.on_drop t;
  retry t

and on_connected t =
  t.st <- Handshaking;
  t.stats.frames_out <- t.stats.frames_out + 1;
  match (t.io, t.hello) with
  | Some (Socket s), Some hello -> (
      s.wbuf <- Frame.encode hello;
      s.woff <- 0;
      try flush_socket t s with Unix.Unix_error _ -> retry t)
  | Some (Pipe peer), Some hello -> deliver t peer hello ~receive
  | _ -> ()

and on_writable t s =
  match t.st with
  | Connecting -> (
      match Unix.getsockopt_error s.fd with
      | None -> on_connected t
      | Some _ -> retry t)
  | Handshaking | Established -> (
      try flush_socket t s with Unix.Unix_error _ -> disconnected t)
  | Closed -> ()

and on_readable t s =
  match Unix.read s.fd s.rbuf 0 (Bytes.length s.rbuf) with
  | 0 -> disconnected t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> disconnected t
  | n ->
      t.stats.bytes_in <- t.stats.bytes_in + n;
      Frame.feed s.dec s.rbuf ~off:0 ~len:n;
      drain_frames t s

and drain_frames t s =
  match Frame.next s.dec with
  | Error _ ->
      (* Oversized length prefix: the stream cannot be resynchronized. *)
      disconnected t
  | Ok None -> ()
  | Ok (Some payload) ->
      receive t payload;
      if t.st <> Closed && on_socket t s then drain_frames t s

let make ~loop ~addr ~hub ~hello ~stats ~on_established ~on_frame ~on_drop
    ~backoff_rng ~shaper ~io ~st =
  {
    loop;
    addr;
    hub;
    hello;
    stats;
    on_established;
    on_frame;
    on_drop;
    backoff_rng;
    shaper;
    outq = Queue.create ();
    io;
    st;
    backoff_ms = floor_ms;
    timer = None;
    up_since = 0.;
    reconnects = 0;
    outage_since = None;
  }

let dial ~loop ~addr ~hello ?hub ?(stats = fresh_stats ()) ?backoff_seed ?shaper
    ~on_established ~on_frame ~on_drop () =
  let t =
    make ~loop ~addr:(Some addr) ~hub ~hello:(Some hello) ~stats
      ~on_established:(Some on_established) ~on_frame ~on_drop
      ~backoff_rng:(Option.map Drbg.of_string backoff_seed)
      ~shaper ~io:None ~st:Connecting
  in
  start_connect t;
  t

(* ------------------------------------------------------------------ *)
(* Accepted connections                                                *)
(* ------------------------------------------------------------------ *)

let of_fd ~loop ~fd ?(stats = fresh_stats ()) ?shaper ~on_frame ~on_drop () =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let s = socket fd in
  let t =
    make ~loop ~addr:None ~hub:None ~hello:None ~stats ~on_established:None
      ~on_frame ~on_drop ~backoff_rng:None ~shaper ~io:(Some (Socket s))
      ~st:Established
  in
  Evloop.add_fd loop fd
    ~on_readable:(fun () -> on_readable t s)
    ~on_writable:(fun () -> on_writable t s);
  t

let serve hub ~loop ~addr ?(stats = fresh_stats ()) ~on_accept ~on_frame
    ~on_drop () =
  Hashtbl.replace hub addr (fun dialer ->
      let t =
        make ~loop ~addr:None ~hub:(Some hub) ~hello:None ~stats
          ~on_established:None ~on_frame ~on_drop ~backoff_rng:None
          ~shaper:None ~io:(Some (Pipe dialer)) ~st:Established
      in
      on_accept t;
      t)

let close t =
  if t.st <> Closed then begin
    cancel_timer t;
    (* Give a final best-effort push to anything already queued (Bye
       frames at shutdown); a blocked socket just loses it. *)
    (if t.st = Established then try flush t ~receive with Unix.Unix_error _ -> ());
    t.st <- Closed;
    close_io t ~disconnected;
    Queue.clear t.outq
  end
