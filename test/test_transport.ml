(* The transport's framing layer, attacked from the byte-stream side:
   TCP delivers frames in arbitrary fragments, so the decoder must
   reassemble exactly — across 1-byte drips, length prefixes split at
   every offset, many frames coalesced into one read — and reject
   oversized or truncated input with a typed error, never an allocation
   proportional to attacker-chosen lengths.  Then a dialed connection's
   redial schedule, against loopback listeners on the test's own loop,
   and the in-memory link of the in-process endpoint on its virtual
   clock. *)

open Vuvuzela_crypto
module Frame = Vuvuzela_transport.Frame
module Addr = Vuvuzela_transport.Addr
module Conn = Vuvuzela_transport.Conn
module Evloop = Vuvuzela_transport.Evloop
module Clock = Vuvuzela_transport.Clock
module Transport = Vuvuzela_transport.Transport
module Shaper = Vuvuzela_transport.Shaper
module Wire = Vuvuzela_mixnet.Wire
open Vuvuzela

let drain decoder =
  let rec go acc =
    match Frame.next decoder with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error e -> Error e
  in
  go []

let feed_all decoder b = Frame.feed decoder b ~off:0 ~len:(Bytes.length b)

(* Round-trip one frame through every split point of its encoding: the
   length prefix itself lands on a fragment boundary at offsets 1..3. *)
let test_split_everywhere () =
  let payload = Bytes.of_string "split-me-anywhere" in
  let wire = Frame.encode payload in
  for cut = 0 to Bytes.length wire do
    let d = Frame.decoder () in
    Frame.feed d wire ~off:0 ~len:cut;
    Frame.feed d wire ~off:cut ~len:(Bytes.length wire - cut);
    match drain d with
    | Ok [ p ] ->
        Alcotest.(check bytes)
          (Printf.sprintf "cut at %d" cut)
          payload p
    | Ok l ->
        Alcotest.failf "cut at %d: %d frames instead of 1" cut (List.length l)
    | Error e -> Alcotest.failf "cut at %d: %s" cut e
  done

(* Seeded fuzz: random frame sequences delivered under adversarial
   chunkings (1-byte drips, random fragments, everything coalesced)
   must reassemble to exactly the sent sequence. *)
let test_fuzz_reassembly () =
  let rng = Drbg.of_string "frame-fuzz" in
  for trial = 1 to 40 do
    let frames =
      List.init
        (1 + Drbg.uniform ~rng 6)
        (fun _ -> Drbg.generate rng (Drbg.uniform ~rng 2048))
    in
    let wire = Bytes.concat Bytes.empty (List.map Frame.encode frames) in
    let chunking = Drbg.uniform ~rng 3 in
    let d = Frame.decoder () in
    let received = ref [] in
    let deliver off len =
      Frame.feed d wire ~off ~len;
      match drain d with
      | Ok ps -> received := !received @ ps
      | Error e -> Alcotest.failf "trial %d: decoder rejected: %s" trial e
    in
    (match chunking with
    | 0 ->
        (* 1-byte drip: the pathological slow sender *)
        for i = 0 to Bytes.length wire - 1 do
          deliver i 1
        done
    | 1 ->
        (* random fragments *)
        let off = ref 0 in
        while !off < Bytes.length wire do
          let len =
            min (1 + Drbg.uniform ~rng 97) (Bytes.length wire - !off)
          in
          deliver !off len;
          off := !off + len
        done
    | _ -> deliver 0 (Bytes.length wire));
    Alcotest.(check int)
      (Printf.sprintf "trial %d: frame count" trial)
      (List.length frames) (List.length !received);
    List.iter2
      (fun sent got ->
        Alcotest.(check bytes)
          (Printf.sprintf "trial %d: payload" trial)
          sent got)
      frames !received
  done

(* A truncated tail is silence, not an error: the decoder waits for the
   rest (the connection teardown is what reports it). *)
let test_truncated_tail () =
  let wire = Frame.encode (Bytes.of_string "never finishes") in
  let d = Frame.decoder () in
  Frame.feed d wire ~off:0 ~len:(Bytes.length wire - 3);
  (match Frame.next d with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "truncated frame decoded"
  | Error e -> Alcotest.failf "truncated frame rejected: %s" e);
  Alcotest.(check int)
    "partial bytes buffered"
    (Bytes.length wire - 3)
    (Frame.buffered d)

(* An oversized length prefix is rejected as soon as the header is
   readable — no allocation of attacker-chosen size — and poisons the
   decoder for good (the stream has lost sync). *)
let test_oversized_prefix_rejected () =
  let evil = Bytes.create 4 in
  Bytes.set_int32_le evil 0 (Int32.of_int (Frame.max_payload + 1));
  let d = Frame.decoder () in
  feed_all d evil;
  (match Frame.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized prefix accepted");
  (* sticky: a well-formed frame after the poison still errors *)
  feed_all d (Frame.encode (Bytes.of_string "too late"));
  match Frame.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned decoder recovered"

let test_encode_oversized_raises () =
  match Frame.encode (Bytes.create (Frame.max_payload + 1)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized encode accepted"

(* The same hard limit guards the Wire reader (satellite: no unbounded
   Bytes.create from a hostile length prefix). *)
let test_wire_limit () =
  let w = Wire.Writer.create () in
  Wire.Writer.u32 w (Wire.max_frame_len + 1);
  let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
  match Wire.Reader.bytes_var r with
  | exception Wire.Error _ -> ()
  | _ -> Alcotest.fail "Wire accepted an oversized length prefix"

(* ... and the Rpc batch reader: a forged count × item_len that
   multiplies past the limit is rejected before allocation. *)
let test_rpc_batch_limit () =
  let w = Wire.Writer.create () in
  Wire.Writer.u32 w 0x56555655;
  (* magic *)
  Wire.Writer.u8 w 1;
  (* version *)
  Wire.Writer.u8 w 14;
  (* Conv_batch_part tag *)
  Wire.Writer.u64 w 1;
  (* round *)
  Wire.Writer.u32 w 0;
  (* seq *)
  Wire.Writer.u8 w 1;
  (* last *)
  Wire.Writer.u32 w 70_000;
  (* count *)
  Wire.Writer.u32 w 70_000;
  (* item_len: 70000 × 70000 ≫ max_frame_len *)
  match Rpc.decode (Wire.Writer.contents w) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Rpc accepted an absurd batch header"

let test_addr_parse () =
  (match Addr.parse "127.0.0.1:7000" with
  | Ok a -> Alcotest.(check string) "ip round-trip" "127.0.0.1:7000" (Addr.to_string a)
  | Error e -> Alcotest.fail e);
  (match Addr.parse ":7000" with
  | Ok (Unix.ADDR_INET (_, port)) -> Alcotest.(check int) "bare port" 7000 port
  | Ok _ -> Alcotest.fail "bare port parsed to a non-IP address"
  | Error e -> Alcotest.fail e);
  match Addr.parse "no-port" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an address without a port"

(* ------------------------------------------------------------------ *)
(* The redial schedule                                                 *)
(* ------------------------------------------------------------------ *)

(* [f] gets a fresh loop, a loopback address below the kernel's
   ephemeral range (no connection can take it as its own local port),
   and [listen], which starts listening there on the loop and hands each
   accepted socket to [on_accept].  The socket is bound, so the port is
   held, but refuses connections until [listen]. *)
let with_listener_port f =
  if not (Daemon_spawn.sockets_allowed ()) then Alcotest.skip ();
  let port = (Daemon_spawn.free_ports 1).(0) in
  let loop = Evloop.create () in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let listen ~on_accept =
    Unix.listen lfd 16;
    Unix.set_nonblock lfd;
    Evloop.add_fd loop lfd ~on_writable:ignore ~on_readable:(fun () ->
        match Unix.accept lfd with
        | fd, _ -> on_accept fd
        | exception Unix.Unix_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () -> Unix.close lfd)
    (fun () ->
      Unix.setsockopt lfd Unix.SO_REUSEADDR true;
      Unix.bind lfd (Addr.loopback ~port);
      f ~loop ~addr:(Addr.loopback ~port) ~listen)

let dial ~loop ~addr ?(on_established = fun _ _ -> ()) ?(on_drop = ignore) () =
  Conn.dial ~loop ~addr ~hello:(Bytes.of_string "hello") ~on_established
    ~on_frame:(fun _ _ -> ()) ~on_drop ()

let run_for loop ms = ignore (Evloop.run_until ~deadline_ms:ms loop (fun () -> false))

(* Nobody listens yet, so every connect is refused at once.  Unseeded,
   each redial waits exactly the cap, which starts at 1 ms and doubles:
   attempts at 0, 1, 3, 7, 15, 31, 63 and 127 ms make 8 refusals in the
   first 200 ms (a 25 ms floor would make 4), and leave the cap at
   256 ms or more.  A listener that appears later is found by the next
   redial.  Once that link has stayed up for the 1 s cap, a drop
   returns the backoff to the floor: the redial comes ~1 ms after the
   drop, not a cap later. *)
let test_redial_from_floor () =
  with_listener_port (fun ~loop ~addr ~listen ->
      let dropped_at = ref None in
      let conn =
        dial ~loop ~addr ~on_drop:(fun _ -> dropped_at := Some (Clock.now_ms ())) ()
      in
      let accepted = ref [] in
      let hang_up () =
        List.iter Conn.close !accepted;
        accepted := []
      in
      Fun.protect
        ~finally:(fun () ->
          Conn.close conn;
          hang_up ())
        (fun () ->
          run_for loop 200.;
          let refused = Conn.reconnects conn in
          if refused < 6 then
            Alcotest.failf "%d refused dials in the first 200 ms, want >= 6"
              refused;
          listen ~on_accept:(fun fd ->
              accepted :=
                Conn.of_fd ~loop ~fd
                  ~on_frame:(fun c _hello -> Conn.send c (Bytes.of_string "welcome"))
                  ~on_drop:ignore ()
                :: !accepted);
          let established () = Conn.state conn = Conn.Established in
          Alcotest.(check bool)
            "established once a listener appears" true
            (Evloop.run_until ~deadline_ms:3_000. loop established);
          run_for loop 1_100.;
          hang_up ();
          Alcotest.(check bool)
            "re-established after the drop" true
            (Evloop.run_until ~deadline_ms:3_000. loop (fun () ->
                 !dropped_at <> None && established ()));
          let redial_ms = Clock.now_ms () -. Option.get !dropped_at in
          if redial_ms > 150. then
            Alcotest.failf
              "a link up for 1 s came back %.0f ms after its drop, want < 150"
              redial_ms))

(* A peer that answers each hello, sends one more frame and hangs up.
   Each link lives far less than the 1 s cap, so the backoff is not
   reset and keeps doubling: connections at about 0, 1, 3, 7, ..., 511
   ms, ~11 in the first second.  Resetting on every completed handshake
   would make ~36 a second from a 25 ms floor, and ~600 from a 1 ms
   one. *)
let test_hangup_peer_backs_off () =
  with_listener_port (fun ~loop ~addr ~listen ->
      let accepts = ref 0 and established = ref 0 in
      listen ~on_accept:(fun fd ->
          incr accepts;
          ignore
            (Conn.of_fd ~loop ~fd
               ~on_frame:(fun c _hello ->
                 Conn.send c (Bytes.of_string "welcome");
                 Conn.send c (Bytes.of_string "goodbye");
                 Conn.close c)
               ~on_drop:ignore ()));
      let conn =
        dial ~loop ~addr ~on_established:(fun _ _ -> incr established) ()
      in
      Fun.protect
        ~finally:(fun () -> Conn.close conn)
        (fun () ->
          run_for loop 1_000.;
          if !accepts > 16 then
            Alcotest.failf "%d connections in the dialer's first second, want <= 16"
              !accepts;
          if !established < 2 then
            Alcotest.failf "established %d time(s): the dialer stopped redialing"
              !established))

(* ------------------------------------------------------------------ *)
(* The in-memory link                                                  *)
(* ------------------------------------------------------------------ *)

let mem_addr = Unix.ADDR_UNIX "mem-listener"

(* An in-process endpoint whose listener answers each hello with
   "welcome" and records what else arrives; [accepted] holds its ends,
   newest first. *)
let mem_endpoint () =
  let tp = Transport.in_process () in
  let accepted = ref [] and received = ref [] and drops = ref 0 in
  let listen () =
    ignore
      (Transport.listen tp mem_addr
         ~on_accept:(fun c _ -> accepted := c :: !accepted)
         ~on_frame:(fun c payload ->
           match Bytes.to_string payload with
           | "hello" -> Conn.send c (Bytes.of_string "welcome")
           | p -> received := p :: !received)
         ~on_drop:(fun _ -> incr drops)
         ())
  in
  (tp, listen, accepted, received, drops)

let mem_dial ?shaper ?(on_frame = fun _ _ -> ()) ?(on_drop = ignore) tp =
  Transport.dial tp ~addr:mem_addr ~hello:(Bytes.of_string "hello") ?shaper
    ~on_established:(fun _ _ -> ()) ~on_frame ~on_drop ()

(* Refused at once with nobody listening, then redialed at 1, 3, 7,
   ..., 127 ms of virtual time: 8 refusals in the first 200 ms, as on a
   socket, and no wall time spent waiting.  A listener that appears is
   found by the next redial. *)
let test_mem_redial_schedule () =
  let tp, listen, _, _, _ = mem_endpoint () in
  let t0 = Unix.gettimeofday () and l0 = Transport.now_ms tp in
  let conn = mem_dial tp in
  ignore (Transport.run_until ~deadline_ms:200. tp (fun () -> false));
  Alcotest.(check int) "refusals in 200 ms" 8 (Conn.reconnects conn);
  Alcotest.(check bool) "200 ms passed on the loop's clock" true
    (Transport.now_ms tp -. l0 >= 200.);
  if Unix.gettimeofday () -. t0 > 0.1 then
    Alcotest.fail "the virtual clock slept on the wall clock";
  listen ();
  Alcotest.(check bool) "established once a listener appears" true
    (Transport.run_until ~deadline_ms:1_000. tp (fun () ->
         Conn.state conn = Conn.Established))

(* Closing either end reaches the other as an EOF: an accepted end
   drops, a dialer drops and redials. *)
let test_mem_close_is_eof () =
  let tp, listen, accepted, _, drops = mem_endpoint () in
  listen ();
  let dialer_drops = ref 0 in
  let conn = mem_dial tp ~on_drop:(fun _ -> incr dialer_drops) in
  let established () = Conn.state conn = Conn.Established in
  Alcotest.(check bool) "established" true (Transport.run_until tp established);
  Conn.close (List.hd !accepted);
  Alcotest.(check bool) "the dialer sees the EOF" true
    (Transport.run_until tp (fun () -> !dialer_drops = 1));
  Alcotest.(check bool) "and redials" true
    (Transport.run_until ~deadline_ms:1_000. tp established);
  Alcotest.(check int) "a second accepted end" 2 (List.length !accepted);
  Conn.close conn;
  Alcotest.(check bool) "the accepted end sees the EOF" true
    (Transport.run_until tp (fun () -> !drops = 1));
  Alcotest.(check bool) "its state is closed" true
    (Conn.state (List.hd !accepted) = Conn.Closed)

(* Frames arrive in send order, each as the payload sent (no framing on
   this medium), on a later dispatch: never inside [send]. *)
let test_mem_ordered_never_inside_send () =
  let tp, listen, _, received, _ = mem_endpoint () in
  listen ();
  let conn = mem_dial tp in
  let sent = List.init 50 (fun i -> Printf.sprintf "frame %d" i) in
  List.iter
    (fun p ->
      Conn.send conn (Bytes.of_string p);
      Alcotest.(check int) "nothing delivered inside send" 0
        (List.length !received))
    sent;
  Alcotest.(check bool) "all delivered" true
    (Transport.run_until tp (fun () -> List.length !received = 50));
  Alcotest.(check (list string)) "in order" sent (List.rev !received);
  let s = Transport.stats tp in
  Alcotest.(check int) "counted as framed socket bytes, both ways"
    s.Conn.bytes_out s.Conn.bytes_in;
  Alcotest.(check bool) "hello, welcome and 50 frames" true
    (s.Conn.frames_in = 52 && s.Conn.frames_out = 52)

(* A shaped link holds each frame back on the loop's virtual clock: the
   frame lands 50 ms of loop time after it was sent, in no wall time. *)
let test_mem_shaper_virtual () =
  let tp = Transport.in_process () in
  let arrived = ref None in
  ignore
    (Transport.listen tp mem_addr ~on_accept:(fun _ _ -> ())
       ~on_frame:(fun c payload ->
         if Bytes.to_string payload = "hello" then
           Conn.send c (Bytes.of_string "welcome")
         else arrived := Some (Transport.now_ms tp))
       ~on_drop:ignore ());
  let conn =
    mem_dial tp ~shaper:(Shaper.config ~latency_ms:50. ())
  in
  Alcotest.(check bool) "established" true
    (Transport.run_until tp (fun () -> Conn.state conn = Conn.Established));
  let t0 = Unix.gettimeofday () and sent_at = Transport.now_ms tp in
  Conn.send conn (Bytes.of_string "ping");
  Alcotest.(check bool) "delivered" true
    (Transport.run_until tp (fun () -> !arrived <> None));
  let waited = Option.get !arrived -. sent_at in
  if waited < 50. then
    Alcotest.failf "the frame landed %.1f ms after its send, want >= 50" waited;
  let s = Transport.stats tp in
  Alcotest.(check int) "one frame shaped" 1 s.Conn.shaped_frames;
  Alcotest.(check (float 1e-9)) "its 50 ms counted" 50. s.Conn.shaped_delay_ms;
  if Unix.gettimeofday () -. t0 > 0.04 then
    Alcotest.fail "the shaper's delay was spent on the wall clock"

let suite =
  ( "transport",
    [
      Alcotest.test_case "frame split at every offset" `Quick
        test_split_everywhere;
      Alcotest.test_case "fuzz reassembly under adversarial chunking" `Quick
        test_fuzz_reassembly;
      Alcotest.test_case "truncated tail waits, buffered" `Quick
        test_truncated_tail;
      Alcotest.test_case "oversized prefix rejected, decoder poisoned" `Quick
        test_oversized_prefix_rejected;
      Alcotest.test_case "oversized encode raises" `Quick
        test_encode_oversized_raises;
      Alcotest.test_case "Wire length limit" `Quick test_wire_limit;
      Alcotest.test_case "Rpc batch header limit" `Quick test_rpc_batch_limit;
      Alcotest.test_case "address parsing" `Quick test_addr_parse;
      Alcotest.test_case "refused dial redials from 1 ms" `Quick
        test_redial_from_floor;
      Alcotest.test_case "hang-up peer is redialed on the backoff" `Quick
        test_hangup_peer_backs_off;
      Alcotest.test_case "in memory: refused dial redials on schedule" `Quick
        test_mem_redial_schedule;
      Alcotest.test_case "in memory: close is an EOF at the other end" `Quick
        test_mem_close_is_eof;
      Alcotest.test_case "in memory: ordered, never inside send" `Quick
        test_mem_ordered_never_inside_send;
      Alcotest.test_case "in memory: shaper on the virtual clock" `Quick
        test_mem_shaper_virtual;
    ] )
