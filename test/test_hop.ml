(* One server's hop of a round, through a one-server {!Daemon} on an
   in-memory transport: a raw upstream link dials it like the
   coordinator does ([Hello] with index -1) and sends part frames by
   hand, so each case sees the ingress paths a daemon takes when its
   upstream misbehaves (gaps, parts after [last], stale rounds, lost
   batches, damaged frames, tampered slots) by what comes back up the
   link and what the server peeled. *)

open Vuvuzela
module Fault = Vuvuzela_faults.Fault
module Transport = Vuvuzela_transport.Transport
module Conn = Vuvuzela_transport.Conn

(* A one-server chain: its only server is the last one, so a finished
   round answers with one reply per slot. *)
let cfg =
  Config.(
    default |> with_seed "hop-tests" |> with_n_servers 1
    |> with_noise_mode Vuvuzela_dp.Noise.Deterministic)

type harness = {
  tp : Transport.t;
  server : Server.t;
  up : Conn.t;  (** the raw upstream link *)
  replies : string list ref;  (** what came back up, newest first *)
  resets : int ref;  (** times the daemon reset the upstream link *)
}

let show = function
  | Rpc.Conv_results { replies; _ } ->
      Printf.sprintf "results %d" (Array.length replies)
  | Rpc.Status st ->
      Printf.sprintf "%s@%d: %s" st.Rpc.stage st.Rpc.server st.Rpc.detail
  | _ -> "other"

(* Run the loop until nothing is left to do (a reset upstream link has
   redialed and handshaken again by then). *)
let settle h =
  ignore (Transport.run_until ~deadline_ms:10_000. h.tp (fun () -> false))

let make ?plan () =
  let tp = Transport.in_process () in
  let addr = Unix.ADDR_UNIX "hop-test-server" in
  let faults =
    Option.map (fun s -> Fault.injector (Result.get_ok (Fault.parse s))) plan
  in
  let daemon =
    Result.get_ok
      (Daemon.start tp ?faults
         {
           Daemon.listen = addr;
           next = None;
           index = 0;
           deployment = cfg;
           metrics_listen = None;
           trace_out = None;
         })
  in
  let replies = ref [] and resets = ref 0 in
  let up =
    Transport.dial tp ~addr
      ~hello:(Rpc.encode (Rpc.Hello { index = -1 }))
      ~on_established:(fun _ _ -> ())
      ~on_frame:(fun _ raw ->
        replies :=
          (match Rpc.decode raw with Ok msg -> show msg | Error e -> e)
          :: !replies)
      ~on_drop:(fun _ -> incr resets)
      ()
  in
  let server = Option.get (Daemon.server daemon) in
  let h = { tp; server; up; replies; resets } in
  settle h;
  h

(* [n] well-formed onions for [round], one per fresh client. *)
let onions h ~round n =
  let pk = Server.public_key h.server in
  Array.init n (fun i ->
      let seed = Printf.sprintf "hop-client-%d" i in
      let c =
        Client.create ~seed
          ~identity:(Types.identity_of_seed (Bytes.of_string seed))
          ~server_pks:[ pk ] ()
      in
      List.hd (Client.conversation_requests c ~round))

(* Send one part frame and return what came back up for it. *)
let send h ~round ~seq ~last onions =
  h.replies := [];
  Conn.send h.up
    (Rpc.encode (Rpc.part Round.Conversation ~round ~m:0 ~seq ~last onions));
  settle h;
  String.concat "; " (List.rev !(h.replies))

let expect what want got = Alcotest.(check string) what want got
let invalid h = (Server.metrics h.server).Server.invalid_requests
let seen h = (Server.metrics h.server).Server.requests_in

let test_seq_gap () =
  let h = make () in
  let o = onions h ~round:1 6 in
  expect "part 0" "" (send h ~round:1 ~seq:0 ~last:false (Array.sub o 0 2));
  expect "a gap is a typed status"
    "conv-batch@0: part 2 arrived, expected 1"
    (send h ~round:1 ~seq:2 ~last:false (Array.sub o 2 2));
  expect "the rest of the round is ignored" ""
    (send h ~round:1 ~seq:3 ~last:true (Array.sub o 4 2));
  Alcotest.(check int) "only part 0 peeled" 2 (seen h)

let test_part_after_last () =
  let h = make () in
  let o = onions h ~round:1 4 in
  expect "the last part finishes" "results 2"
    (send h ~round:1 ~seq:0 ~last:true (Array.sub o 0 2));
  expect "a part after it is ignored" ""
    (send h ~round:1 ~seq:1 ~last:true (Array.sub o 2 2));
  Alcotest.(check int) "and never peeled" 2 (seen h)

let test_new_round_supersedes () =
  let h = make () in
  let o1 = onions h ~round:1 2 and o2 = onions h ~round:2 3 in
  expect "round 1 opens" "" (send h ~round:1 ~seq:0 ~last:false o1);
  expect "round 2 starts from its own part 0" "results 3"
    (send h ~round:2 ~seq:0 ~last:true o2);
  Alcotest.(check int) "round 2 peeled cleanly" 0 (invalid h);
  expect "round 1's tail is stale" "" (send h ~round:1 ~seq:1 ~last:true o1);
  Alcotest.(check int) "and never peeled" 5 (seen h)

let test_lost_batch_swallows_the_rest () =
  List.iter
    (fun (plan, resets) ->
      let h = make ~plan () in
      let o = onions h ~round:1 4 in
      expect (plan ^ ": nothing answered") ""
        (send h ~round:1 ~seq:0 ~last:false (Array.sub o 0 2));
      expect (plan ^ ": later parts ignored") ""
        (send h ~round:1 ~seq:1 ~last:true (Array.sub o 2 2));
      Alcotest.(check int) (plan ^ ": nothing peeled") 0 (seen h);
      Alcotest.(check int) (plan ^ ": upstream resets") resets !(h.resets))
    [ ("drop@1", 0); ("crash@1", 1); ("partition(5)@1", 1) ]

let test_frame_faults_hit_part_0_only () =
  (* Byte 30 of a part frame is inside its first onion (after the 19-byte
     part header and the 8-byte batch header): one onion fails to peel,
     though both parts carry an onion at that offset. *)
  let h = make ~plan:"corrupt(30)@1" () in
  let o = onions h ~round:1 4 in
  expect "damaged part 0 still decodes" ""
    (send h ~round:1 ~seq:0 ~last:false (Array.sub o 0 2));
  expect "part 1 arrives intact" "results 4"
    (send h ~round:1 ~seq:1 ~last:true (Array.sub o 2 2));
  Alcotest.(check int) "one onion damaged" 1 (invalid h);
  (* Byte 18 is part 0's [last] flag: the daemon acts on the frame it
     decoded, so the round ends at part 0. *)
  let h = make ~plan:"corrupt(18)@1" () in
  let o = onions h ~round:1 4 in
  expect "flipped last flag finishes the round" "results 2"
    (send h ~round:1 ~seq:0 ~last:false (Array.sub o 0 2));
  expect "the real last part is ignored" ""
    (send h ~round:1 ~seq:1 ~last:true (Array.sub o 2 2));
  Alcotest.(check int) "and never peeled" 2 (seen h);
  let h = make ~plan:"corrupt(5)@1" () in
  let o = onions h ~round:1 4 in
  expect "a damaged tag is rejected"
    "conv-batch@0: Rpc.decode: unknown tag 241"
    (send h ~round:1 ~seq:0 ~last:false (Array.sub o 0 2))

let test_tampers_straddle_parts () =
  (* Slots 1 and 2 sit on either side of a 2-onion part boundary; slot 9
     is past the end of the batch.  Whole or in parts, the same two
     onions fail. *)
  let plan = "tamper(1)@1;tamper(2)@1;tamper(9)@1" in
  let parted = make ~plan () in
  let o = onions parted ~round:1 4 in
  expect "part 0" "" (send parted ~round:1 ~seq:0 ~last:false (Array.sub o 0 2));
  expect "part 1" "results 4"
    (send parted ~round:1 ~seq:1 ~last:true (Array.sub o 2 2));
  let whole = make ~plan () in
  expect "one whole part" "results 4" (send whole ~round:1 ~seq:0 ~last:true o);
  Alcotest.(check int) "tampered in parts" 2 (invalid parted);
  Alcotest.(check int) "tampered whole" 2 (invalid whole)

let suite =
  let tc = Alcotest.test_case in
  ( "hop",
    [
      tc "a sequence gap is a typed status" `Quick test_seq_gap;
      tc "a part after the last one is ignored" `Quick test_part_after_last;
      tc "a new round supersedes a stale one" `Quick test_new_round_supersedes;
      tc "a lost batch swallows its later parts" `Quick
        test_lost_batch_swallows_the_rest;
      tc "frame faults hit part 0 only" `Quick test_frame_faults_hit_part_0_only;
      tc "tampers straddle a part boundary" `Quick test_tampers_straddle_parts;
    ] )
