(* The per-(round, server) relay state machine on its own, with no
   sockets and no chain around it: the ingress paths a daemon takes
   when its upstream misbehaves (gaps, parts after [last], stale rounds,
   lost batches, damaged frames, tampered slots). *)

open Vuvuzela
module Fault = Vuvuzela_faults.Fault

(* A one-server chain: its only hop is the last server, so a finished
   round answers with one reply per slot. *)
let cfg =
  Config.(
    default |> with_seed "hop-tests" |> with_n_servers 1
    |> with_noise_mode Vuvuzela_dp.Noise.Deterministic)

let make ?plan ?on_fire () =
  Hop.create
    ?faults:(Option.map (fun s -> Fault.injector (Result.get_ok (Fault.parse s))) plan)
    ?on_fire cfg ~position:0 ~suffix_pks:[]

(* [n] well-formed onions for [round], one per fresh client. *)
let onions hop ~round n =
  let pk = Server.public_key (Hop.server hop) in
  Array.init n (fun i ->
      let seed = Printf.sprintf "hop-client-%d" i in
      let c =
        Client.create ~seed
          ~identity:(Types.identity_of_seed (Bytes.of_string seed))
          ~server_pks:[ pk ] ()
      in
      Client.conversation_request c ~round)

let send hop ~round ~seq ~last onions =
  Hop.arrive hop
    (Rpc.encode (Rpc.part Round.Conversation ~round ~m:0 ~seq ~last onions))

let show = function
  | Hop.Absorbed -> "absorbed"
  | Hop.Finished out -> Printf.sprintf "finished %d" (Array.length out)
  | Hop.Rejected st ->
      Printf.sprintf "rejected %s@%d: %s" st.Rpc.stage st.Rpc.server st.Rpc.detail
  | Hop.Dropped st ->
      Printf.sprintf "dropped %s@%d: %s" st.Rpc.stage st.Rpc.server st.Rpc.detail
  | Hop.Ignored -> "ignored"

let expect what want step = Alcotest.(check string) what want (show step)
let invalid hop = (Server.metrics (Hop.server hop)).Server.invalid_requests
let seen hop = (Server.metrics (Hop.server hop)).Server.requests_in

let test_seq_gap () =
  let hop = make () in
  let o = onions hop ~round:1 6 in
  expect "part 0" "absorbed" (send hop ~round:1 ~seq:0 ~last:false (Array.sub o 0 2));
  expect "a gap is a typed status"
    "rejected conv-batch@0: part 2 arrived, expected 1"
    (send hop ~round:1 ~seq:2 ~last:false (Array.sub o 2 2));
  expect "the rest of the round is ignored" "ignored"
    (send hop ~round:1 ~seq:3 ~last:true (Array.sub o 4 2))

let test_part_after_last () =
  let hop = make () in
  let o = onions hop ~round:1 4 in
  expect "the last part finishes" "finished 2"
    (send hop ~round:1 ~seq:0 ~last:true (Array.sub o 0 2));
  expect "a part after it is ignored" "ignored"
    (send hop ~round:1 ~seq:1 ~last:true (Array.sub o 2 2));
  Alcotest.(check int) "and never peeled" 2 (seen hop)

let test_new_round_supersedes () =
  let hop = make () in
  let o1 = onions hop ~round:1 2 and o2 = onions hop ~round:2 3 in
  expect "round 1 opens" "absorbed" (send hop ~round:1 ~seq:0 ~last:false o1);
  expect "round 2 starts from its own part 0" "finished 3"
    (send hop ~round:2 ~seq:0 ~last:true o2);
  Alcotest.(check int) "round 2 peeled cleanly" 0 (invalid hop);
  expect "round 1's tail is stale" "ignored"
    (send hop ~round:1 ~seq:1 ~last:true o1)

let test_lost_batch_swallows_the_rest () =
  List.iter
    (fun (plan, want, reset) ->
      let fired = ref None in
      let hop = make ~plan ~on_fire:(fun f -> fired := Some f) () in
      let o = onions hop ~round:1 4 in
      expect plan want (send hop ~round:1 ~seq:0 ~last:false (Array.sub o 0 2));
      expect (plan ^ ": later parts") "ignored"
        (send hop ~round:1 ~seq:1 ~last:true (Array.sub o 2 2));
      Alcotest.(check int) (plan ^ ": nothing peeled") 0 (seen hop);
      match !fired with
      | Some f -> Alcotest.(check bool) (plan ^ ": reset") reset f.Hop.reset
      | None -> Alcotest.fail "on_fire not called")
    [
      ("drop@1", "dropped conv-batch@0: link dropped (injected fault)", false);
      ("crash@1", "dropped conv-batch@0: server crashed (injected fault)", true);
      ( "partition(5)@1",
        "dropped conv-batch@0: link partitioned (injected fault)",
        true );
    ]

let test_frame_faults_hit_part_0_only () =
  (* Byte 30 of a part frame is inside its first onion (after the 19-byte
     part header and the 8-byte batch header): one onion fails to peel,
     though both parts carry an onion at that offset. *)
  let hop = make ~plan:"corrupt(30)@1" () in
  let o = onions hop ~round:1 4 in
  expect "damaged part 0 still decodes" "absorbed"
    (send hop ~round:1 ~seq:0 ~last:false (Array.sub o 0 2));
  expect "part 1 arrives intact" "finished 4"
    (send hop ~round:1 ~seq:1 ~last:true (Array.sub o 2 2));
  Alcotest.(check int) "one onion damaged" 1 (invalid hop);
  (* Byte 18 is part 0's [last] flag: the receiver acts on the frame it
     decoded, so the round ends at part 0. *)
  let hop = make ~plan:"corrupt(18)@1" () in
  let o = onions hop ~round:1 4 in
  expect "flipped last flag finishes the round" "finished 2"
    (send hop ~round:1 ~seq:0 ~last:false (Array.sub o 0 2));
  expect "the real last part is ignored" "ignored"
    (send hop ~round:1 ~seq:1 ~last:true (Array.sub o 2 2));
  let hop = make ~plan:"corrupt(5)@1" () in
  let o = onions hop ~round:1 4 in
  expect "a damaged tag is rejected"
    "rejected conv-batch@0: Rpc.decode: unknown tag 241"
    (send hop ~round:1 ~seq:0 ~last:false (Array.sub o 0 2))

let test_tampers_straddle_parts () =
  (* Slots 1 and 2 sit on either side of a 2-onion part boundary; slot 9
     is past the end of the batch.  Whole or in parts, the same two
     onions fail. *)
  let plan = "tamper(1)@1;tamper(2)@1;tamper(9)@1" in
  let parted = make ~plan () in
  let o = onions parted ~round:1 4 in
  expect "part 0" "absorbed" (send parted ~round:1 ~seq:0 ~last:false (Array.sub o 0 2));
  expect "part 1" "finished 4" (send parted ~round:1 ~seq:1 ~last:true (Array.sub o 2 2));
  let whole = make ~plan () in
  expect "one whole part" "finished 4" (send whole ~round:1 ~seq:0 ~last:true o);
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
