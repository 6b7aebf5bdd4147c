(* Client state machine and whole-network integration tests: reliable
   delivery, retransmission under blocking, pipelining, dialing flows. *)

open Vuvuzela_crypto
open Vuvuzela_dp
open Vuvuzela

let tiny_noise = Laplace.params ~mu:3. ~b:1.
let tiny_dial = Laplace.params ~mu:1. ~b:1.

let make_net ?(seed = "client-tests") ?(n_servers = 3) () =
  Network.of_config
    Network.Config.(
      default |> with_seed seed |> with_n_servers n_servers
      |> with_noise tiny_noise |> with_dial_noise tiny_dial
      |> with_noise_mode Noise.Deterministic)

let delivered_texts events =
  List.concat_map
    (fun (_, evs) ->
      List.filter_map
        (function Client.Delivered { text; _ } -> Some text | _ -> None)
        evs)
    events

let texts_for client events =
  List.concat_map
    (fun (c, evs) ->
      if c == client then
        List.filter_map
          (function Client.Delivered { text; _ } -> Some text | _ -> None)
          evs
      else [])
    events

let pair_up net =
  let a = Network.connect ~seed:"alice" net in
  let b = Network.connect ~seed:"bob" net in
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  Client.start_conversation b ~peer_pk:(Client.public_key a);
  (a, b)

let test_basic_delivery () =
  let net = make_net () in
  let a, b = pair_up net in
  Client.send a "hello";
  Client.send b "hi there";
  let events = Network.events_of @@ Network.run_rounds net 2 in
  Alcotest.(check (list string)) "bob got hello" [ "hello" ] (texts_for b events);
  Alcotest.(check (list string)) "alice got hi" [ "hi there" ] (texts_for a events)

let test_in_order_delivery () =
  let net = make_net () in
  let a, b = pair_up net in
  let msgs = List.init 10 (Printf.sprintf "msg-%02d") in
  List.iter (Client.send a) msgs;
  let events = Network.events_of @@ Network.run_rounds net 15 in
  Alcotest.(check (list string)) "all delivered in order" msgs (texts_for b events);
  Alcotest.(check int) "nothing left queued" 0 (Client.queued a)

let test_pipelining_window () =
  (* With window 4 and no losses, 8 messages need ~9 rounds (one data
     message per round), not 16+ as stop-and-wait would. *)
  let net = make_net () in
  let a = Network.connect ~seed:"alice" ~window:4 net in
  let b = Network.connect ~seed:"bob" ~window:4 net in
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  Client.start_conversation b ~peer_pk:(Client.public_key a);
  let msgs = List.init 8 (Printf.sprintf "p%d") in
  List.iter (Client.send a) msgs;
  let events = Network.events_of @@ Network.run_rounds net 9 in
  Alcotest.(check (list string)) "all 8 within 9 rounds" msgs (texts_for b events);
  Alcotest.(check int) "no retransmissions without loss" 0
    (Client.stats a).Client.retransmissions

let test_window_one_is_stop_and_wait () =
  let net = make_net () in
  let a = Network.connect ~seed:"alice" ~window:1 net in
  let b = Network.connect ~seed:"bob" ~window:1 net in
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  Client.start_conversation b ~peer_pk:(Client.public_key a);
  Client.send a "one";
  Client.send a "two";
  let events = Network.events_of @@ Network.run_rounds net 2 in
  (* With window 1, "two" cannot be sent until "one" is acked (ack
     arrives in round 2's reply), so only "one" lands in 2 rounds. *)
  Alcotest.(check (list string)) "only first delivered" [ "one" ] (texts_for b events);
  let events = Network.events_of @@ Network.run_rounds net 3 in
  Alcotest.(check (list string)) "second follows" [ "two" ] (texts_for b events)

let test_retransmission_on_block () =
  let net = make_net () in
  let a, b = pair_up net in
  Client.send a "survives blocking";
  (* Block Alice for the first two rounds: her message cannot have been
     exchanged. *)
  let blocked c = c == a in
  let events = Network.events_of @@ Network.run_rounds ~blocked net 2 in
  Alcotest.(check (list string)) "nothing delivered while blocked" []
    (delivered_texts events);
  (* Unblock: the client retransmits and delivery succeeds. *)
  let events = Network.events_of @@ Network.run_rounds net 6 in
  Alcotest.(check (list string)) "delivered after unblock"
    [ "survives blocking" ] (texts_for b events)

let test_retransmission_on_receiver_block () =
  let net = make_net () in
  let a, b = pair_up net in
  Client.send a "to a deaf bob";
  (* Bob offline: Alice's exchanges are lone accesses. *)
  let events = Network.events_of @@ Network.run_rounds ~blocked:(fun c -> c == b) net 3 in
  Alcotest.(check (list string)) "not delivered" [] (delivered_texts events);
  let events = Network.events_of @@ Network.run_rounds net 6 in
  Alcotest.(check (list string)) "delivered once bob returns"
    [ "to a deaf bob" ] (texts_for b events);
  Alcotest.(check bool) "retransmissions happened" true
    ((Client.stats a).Client.retransmissions > 0)

let test_no_duplicate_delivery () =
  (* Intermittent blocking forces retransmissions; the receiver must
     still deliver exactly once, in order. *)
  let net = make_net () in
  let a, b = pair_up net in
  let msgs = List.init 6 (Printf.sprintf "d%d") in
  List.iter (Client.send a) msgs;
  let all = ref [] in
  for round = 1 to 30 do
    let blocked c = (round mod 3 = 0 && c == a) || (round mod 4 = 0 && c == b) in
    let events = (Network.run ~kind:Round.Conversation ~blocked net).Network.events in
    all := !all @ texts_for b events
  done;
  Alcotest.(check (list string)) "exactly once, in order" msgs !all

let test_bidirectional_concurrent () =
  let net = make_net () in
  let a, b = pair_up net in
  let msgs_a = List.init 5 (Printf.sprintf "a->b %d") in
  let msgs_b = List.init 5 (Printf.sprintf "b->a %d") in
  List.iter (Client.send a) msgs_a;
  List.iter (Client.send b) msgs_b;
  let events = Network.events_of @@ Network.run_rounds net 10 in
  Alcotest.(check (list string)) "a→b" msgs_a (texts_for b events);
  Alcotest.(check (list string)) "b→a" msgs_b (texts_for a events)

let test_idle_clients_receive_nothing () =
  let net = make_net () in
  let a, b = pair_up net in
  let idle = Network.connect ~seed:"idle" net in
  Client.send a "private";
  let events = Network.events_of @@ Network.run_rounds net 4 in
  Alcotest.(check (list string)) "bob gets it" [ "private" ] (texts_for b events);
  Alcotest.(check (list string)) "idle client gets nothing" []
    (texts_for idle events);
  Alcotest.(check int) "idle client still sent every round" 4
    (Client.stats idle).Client.rounds

let test_send_without_conversation () =
  let net = make_net () in
  let a = Network.connect ~seed:"alice" net in
  Alcotest.check_raises "send requires conversation"
    (Invalid_argument "Client.send: no active conversation") (fun () ->
      Client.send a "nope")

let test_oversize_text_rejected () =
  let net = make_net () in
  let a, _ = pair_up net in
  Alcotest.(check bool) "oversize raises" true
    (try
       Client.send a (String.make (Types.text_capacity + 1) 'x');
       false
     with Invalid_argument _ -> true)

let test_end_conversation_stops_delivery () =
  let net = make_net () in
  let a, b = pair_up net in
  Client.send a "first";
  ignore (Network.run_rounds net 2);
  Client.end_conversation b;
  Client.send a "after hangup";
  let events = Network.events_of @@ Network.run_rounds net 4 in
  Alcotest.(check (list string)) "no delivery after hangup" []
    (texts_for b events);
  Alcotest.(check bool) "bob idle" true (Client.peers b = [])

let test_conversation_switch () =
  (* Bob hangs up on Alice and talks to Charlie instead; Alice's messages
     stop landing, Charlie's flow. *)
  let net = make_net () in
  let a, b = pair_up net in
  let c = Network.connect ~seed:"charlie" net in
  Client.send a "to old bob";
  ignore (Network.run_rounds net 3);
  Client.start_conversation b ~peer_pk:(Client.public_key c);
  Client.start_conversation c ~peer_pk:(Client.public_key b);
  Client.send c "hello from charlie";
  let events = Network.events_of @@ Network.run_rounds net 4 in
  Alcotest.(check (list string)) "bob hears charlie" [ "hello from charlie" ]
    (texts_for b events);
  Alcotest.(check bool) "bob's peer is charlie" true
    (Client.peers b = [ Client.public_key c ])

(* ------------------------------------------------------------------ *)
(* Dialing through the network                                         *)
(* ------------------------------------------------------------------ *)

let test_dial_and_converse () =
  let net = make_net () in
  let a = Network.connect ~seed:"alice" net in
  let b = Network.connect ~seed:"bob" net in
  let _idle = Network.connect ~seed:"idle" net in
  Client.dial a ~callee_pk:(Client.public_key b);
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  let dial_events = (Network.run ~kind:Round.Dialing net).Network.events in
  (* Bob (and only Bob) hears the call. *)
  (match dial_events with
  | [ (c, [ Client.Incoming_call { caller; _ } ]) ] ->
      Alcotest.(check bool) "callee is bob" true (c == b);
      Alcotest.(check string) "caller is alice"
        (Bytes_util.to_hex (Client.public_key a))
        (Bytes_util.to_hex caller);
      Client.start_conversation b ~peer_pk:caller
  | _ -> Alcotest.fail "expected exactly one incoming call");
  Client.send a "we're connected";
  let events = Network.events_of @@ Network.run_rounds net 3 in
  Alcotest.(check (list string)) "conversation works" [ "we're connected" ]
    (texts_for b events)

let test_dial_consumed_once () =
  let net = make_net () in
  let a = Network.connect ~seed:"alice" net in
  let b = Network.connect ~seed:"bob" net in
  Client.dial a ~callee_pk:(Client.public_key b);
  let ev1 = (Network.run ~kind:Round.Dialing net).Network.events in
  Alcotest.(check int) "first round rings" 1 (List.length ev1);
  let ev2 = (Network.run ~kind:Round.Dialing net).Network.events in
  Alcotest.(check int) "second round silent (dial consumed)" 0
    (List.length ev2)

let test_multiple_invitation_drops () =
  let net = make_net () in
  Network.set_invitation_drops net 8;
  let a = Network.connect ~seed:"alice" net in
  let b = Network.connect ~seed:"bob" net in
  let c = Network.connect ~seed:"charlie" net in
  Client.dial a ~callee_pk:(Client.public_key b);
  Client.dial c ~callee_pk:(Client.public_key a);
  let events = (Network.run ~kind:Round.Dialing net).Network.events in
  let callers_of client =
    List.concat_map
      (fun (cl, evs) ->
        if cl == client then
          List.filter_map
            (function Client.Incoming_call { caller; _ } -> Some caller | _ -> None)
            evs
        else [])
      events
  in
  Alcotest.(check int) "bob rings" 1 (List.length (callers_of b));
  Alcotest.(check int) "alice rings" 1 (List.length (callers_of a));
  Alcotest.(check int) "charlie silent" 0 (List.length (callers_of c))

let test_blocked_dialer_silent () =
  let net = make_net () in
  let a = Network.connect ~seed:"alice" net in
  let b = Network.connect ~seed:"bob" net in
  Client.dial a ~callee_pk:(Client.public_key b);
  let events = (Network.run ~kind:Round.Dialing ~blocked:(fun c -> c == a) net).Network.events in
  Alcotest.(check int) "no call when dialer blocked" 0 (List.length events)

(* ------------------------------------------------------------------ *)
(* Many users                                                          *)
(* ------------------------------------------------------------------ *)

let test_many_pairs () =
  let net = make_net () in
  let pairs =
    List.init 8 (fun i ->
        let a = Network.connect ~seed:(Printf.sprintf "u%d-a" i) net in
        let b = Network.connect ~seed:(Printf.sprintf "u%d-b" i) net in
        Client.start_conversation a ~peer_pk:(Client.public_key b);
        Client.start_conversation b ~peer_pk:(Client.public_key a);
        Client.send a (Printf.sprintf "pair-%d ping" i);
        (a, b, i))
  in
  let events = Network.events_of @@ Network.run_rounds net 4 in
  List.iter
    (fun (_, b, i) ->
      Alcotest.(check (list string))
        (Printf.sprintf "pair %d delivered" i)
        [ Printf.sprintf "pair-%d ping" i ]
        (texts_for b events))
    pairs

let test_client_stats_accounting () =
  let net = make_net () in
  let a, b = pair_up net in
  Client.send a "x";
  ignore (Network.run_rounds net 5);
  let sa = Client.stats a and sb = Client.stats b in
  Alcotest.(check int) "alice rounds" 5 sa.Client.rounds;
  Alcotest.(check int) "alice sent 1 data" 1 sa.Client.data_sent;
  Alcotest.(check int) "bob received 1 data" 1 sb.Client.data_received;
  Alcotest.(check int) "no duplicates" 0 sb.Client.duplicates

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"any message batch is delivered exactly once in order"
      ~count:10
      (list_of_size (Gen.int_range 1 12)
         (string_gen_of_size (Gen.int_range 0 60) Gen.printable))
      (fun msgs ->
        let net = make_net ~seed:"prop-delivery" () in
        let a = Network.connect ~seed:"alice" net in
        let b = Network.connect ~seed:"bob" net in
        Client.start_conversation a ~peer_pk:(Client.public_key b);
        Client.start_conversation b ~peer_pk:(Client.public_key a);
        List.iter (Client.send a) msgs;
        let events = Network.events_of @@ Network.run_rounds net (List.length msgs + 8) in
        texts_for b events = msgs);
  ]

let suite =
  let tc = Alcotest.test_case in
  ( "client",
    [
      tc "basic delivery" `Quick test_basic_delivery;
      tc "in-order delivery" `Quick test_in_order_delivery;
      tc "pipelining window" `Quick test_pipelining_window;
      tc "window=1 is stop-and-wait" `Quick test_window_one_is_stop_and_wait;
      tc "retransmission when sender blocked" `Quick test_retransmission_on_block;
      tc "retransmission when receiver blocked" `Quick test_retransmission_on_receiver_block;
      tc "no duplicate delivery under churn" `Quick test_no_duplicate_delivery;
      tc "bidirectional concurrent" `Quick test_bidirectional_concurrent;
      tc "idle clients receive nothing" `Quick test_idle_clients_receive_nothing;
      tc "send without conversation" `Quick test_send_without_conversation;
      tc "oversize text rejected" `Quick test_oversize_text_rejected;
      tc "end conversation stops delivery" `Quick test_end_conversation_stops_delivery;
      tc "conversation switch" `Quick test_conversation_switch;
      tc "dial then converse" `Quick test_dial_and_converse;
      tc "dial consumed once" `Quick test_dial_consumed_once;
      tc "multiple invitation drops" `Quick test_multiple_invitation_drops;
      tc "blocked dialer is silent" `Quick test_blocked_dialer_silent;
      tc "many pairs concurrently" `Quick test_many_pairs;
      tc "client stats accounting" `Quick test_client_stats_accounting;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props )

(* Lost replies must not leak per-round contexts forever. *)
let test_pending_round_gc () =
  let net = make_net () in
  let a = Network.connect ~seed:"gc-a" net in
  (* Simulate many rounds whose replies are never delivered: produce
     requests directly without routing them anywhere. *)
  for round = 1 to 1_000 do
    ignore (Client.conversation_requests a ~round)
  done;
  (* The client survives; a real round afterwards still works. *)
  let b = Network.connect ~seed:"gc-b" net in
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  Client.start_conversation b ~peer_pk:(Client.public_key a);
  Client.send a "after the storm";
  (* Network's round counter is far behind the client's private ones;
     run enough rounds for a fresh exchange. *)
  let events = Network.events_of @@ Network.run_rounds net 3 in
  Alcotest.(check (list string)) "still functional" [ "after the storm" ]
    (texts_for b events)

let suite =
  ( fst suite,
    snd suite
    @ [ Alcotest.test_case "pending-round GC" `Quick test_pending_round_gc ] )
