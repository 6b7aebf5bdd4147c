(* The §9 multiple-conversations extension: a client with
   max_conversations = c sends exactly c indistinguishable exchange
   requests every round and can hold c concurrent conversations. *)

open Vuvuzela_dp
open Vuvuzela

let tiny_noise = Laplace.params ~mu:3. ~b:1.

let make_net () =
  Network.of_config
    Network.Config.(
      default |> with_seed "multiconv" |> with_noise tiny_noise
      |> with_dial_noise (Laplace.params ~mu:1. ~b:1.)
      |> with_noise_mode Noise.Deterministic)

let texts_from peer events client =
  List.concat_map
    (fun (c, evs) ->
      if c == client then
        List.filter_map
          (function
            | Client.Delivered { peer = p; text } when Bytes.equal p peer ->
                Some text
            | _ -> None)
          evs
      else [])
    events

let test_fixed_request_count () =
  let net = make_net () in
  let hub = Network.connect ~seed:"hub" ~max_conversations:3 net in
  (* Idle, one, two, three conversations: always exactly 3 requests. *)
  let count () = List.length (Client.conversation_requests hub ~round:999) in
  Alcotest.(check int) "idle: 3 requests" 3 (count ());
  let b = Network.connect ~seed:"b" net in
  Client.start_conversation hub ~peer_pk:(Client.public_key b);
  Alcotest.(check int) "one conv: 3 requests" 3 (count ());
  let c = Network.connect ~seed:"c" net in
  Client.start_conversation hub ~peer_pk:(Client.public_key c);
  Alcotest.(check int) "two convs: 3 requests" 3 (count ());
  (* All requests are the same size. *)
  let rs = Client.conversation_requests hub ~round:1000 in
  let sizes = List.sort_uniq compare (List.map Bytes.length rs) in
  Alcotest.(check int) "uniform sizes" 1 (List.length sizes)

let test_concurrent_conversations () =
  let net = make_net () in
  let hub = Network.connect ~seed:"hub" ~max_conversations:2 net in
  let b = Network.connect ~seed:"b" net in
  let c = Network.connect ~seed:"c" net in
  Client.start_conversation hub ~peer_pk:(Client.public_key b);
  Client.start_conversation hub ~peer_pk:(Client.public_key c);
  Client.start_conversation b ~peer_pk:(Client.public_key hub);
  Client.start_conversation c ~peer_pk:(Client.public_key hub);
  Client.send_to hub ~peer:(Client.public_key b) "to b";
  Client.send_to hub ~peer:(Client.public_key c) "to c";
  Client.send b "from b";
  Client.send c "from c";
  let events = Network.events_of @@ Network.run_rounds net 4 in
  Alcotest.(check (list string)) "b heard hub" [ "to b" ]
    (texts_from (Client.public_key hub) events b);
  Alcotest.(check (list string)) "c heard hub" [ "to c" ]
    (texts_from (Client.public_key hub) events c);
  Alcotest.(check (list string)) "hub heard b" [ "from b" ]
    (texts_from (Client.public_key b) events hub);
  Alcotest.(check (list string)) "hub heard c" [ "from c" ]
    (texts_from (Client.public_key c) events hub);
  Alcotest.(check int) "hub has two peers" 2 (List.length (Client.peers hub))

let test_capacity_eviction () =
  let net = make_net () in
  let hub = Network.connect ~seed:"hub" ~max_conversations:2 net in
  let mk s = Client.public_key (Network.connect ~seed:s net) in
  let b = mk "b" and c = mk "c" and d = mk "d" in
  Client.start_conversation hub ~peer_pk:b;
  Client.start_conversation hub ~peer_pk:c;
  Client.start_conversation hub ~peer_pk:d;
  (* Oldest (b) evicted. *)
  let peers = Client.peers hub in
  Alcotest.(check int) "still two" 2 (List.length peers);
  Alcotest.(check bool) "b gone" false (List.exists (Bytes.equal b) peers);
  Alcotest.(check bool) "c kept" true (List.exists (Bytes.equal c) peers);
  Alcotest.(check bool) "d added" true (List.exists (Bytes.equal d) peers)

let test_restart_same_peer () =
  let net = make_net () in
  let hub = Network.connect ~seed:"hub" ~max_conversations:2 net in
  let b = Network.connect ~seed:"b" net in
  let c = Network.connect ~seed:"c" net in
  Client.start_conversation hub ~peer_pk:(Client.public_key b);
  Client.start_conversation hub ~peer_pk:(Client.public_key c);
  (* Restarting with b must not evict c. *)
  Client.start_conversation hub ~peer_pk:(Client.public_key b);
  Alcotest.(check int) "still two peers" 2 (List.length (Client.peers hub))

let test_send_requires_disambiguation () =
  let net = make_net () in
  let hub = Network.connect ~seed:"hub" ~max_conversations:2 net in
  let b = Network.connect ~seed:"b" net in
  let c = Network.connect ~seed:"c" net in
  Client.start_conversation hub ~peer_pk:(Client.public_key b);
  Client.start_conversation hub ~peer_pk:(Client.public_key c);
  Alcotest.check_raises "ambiguous send"
    (Invalid_argument
       "Client.send: multiple conversations active; use send_to") (fun () ->
      Client.send hub "which one?");
  Alcotest.check_raises "unknown peer"
    (Invalid_argument "Client.send: no conversation with that peer")
    (fun () -> Client.send_to hub ~peer:(Bytes.make 32 'q') "nope")

let test_end_one_conversation () =
  let net = make_net () in
  let hub = Network.connect ~seed:"hub" ~max_conversations:2 net in
  let b = Network.connect ~seed:"b" net in
  let c = Network.connect ~seed:"c" net in
  Client.start_conversation hub ~peer_pk:(Client.public_key b);
  Client.start_conversation hub ~peer_pk:(Client.public_key c);
  Client.end_conversation ~peer:(Client.public_key b) hub;
  Alcotest.(check (list string)) "only c left"
    [ Vuvuzela_crypto.Bytes_util.to_hex (Client.public_key c) ]
    (List.map Vuvuzela_crypto.Bytes_util.to_hex (Client.peers hub));
  Client.end_conversation hub;
  Alcotest.(check bool) "all ended" true (Client.peers hub = [])

let test_mixed_population () =
  (* Multi-conversation hubs and single-conversation clients coexist in
     one deployment; message flow and histograms stay sane. *)
  let net = make_net () in
  let hub = Network.connect ~seed:"hub" ~max_conversations:3 net in
  let spokes =
    List.init 3 (fun i -> Network.connect ~seed:(Printf.sprintf "s%d" i) net)
  in
  List.iteri
    (fun i s ->
      Client.start_conversation hub ~peer_pk:(Client.public_key s);
      Client.start_conversation s ~peer_pk:(Client.public_key hub);
      Client.send_to hub ~peer:(Client.public_key s) (Printf.sprintf "hi %d" i))
    spokes;
  let events = Network.events_of @@ Network.run_rounds net 3 in
  List.iteri
    (fun i s ->
      Alcotest.(check (list string))
        (Printf.sprintf "spoke %d" i)
        [ Printf.sprintf "hi %d" i ]
        (texts_from (Client.public_key hub) events s))
    spokes;
  (* Total per-round requests: hub's 3 + 3 spokes = 6 real slots. *)
  match Chain.observed_histogram (Network.chain net) with
  | Some h ->
      (* 3 real pairs + deterministic noise (2 servers × ⌈µ/2⌉=2 pairs). *)
      Alcotest.(check int) "m2 counts hub pairs + noise" 7 h.Deaddrop.m2
  | None -> Alcotest.fail "no histogram"

let suite =
  let tc = Alcotest.test_case in
  ( "multiconv",
    [
      tc "fixed request count" `Quick test_fixed_request_count;
      tc "concurrent conversations" `Quick test_concurrent_conversations;
      tc "capacity eviction" `Quick test_capacity_eviction;
      tc "restart same peer" `Quick test_restart_same_peer;
      tc "send disambiguation" `Quick test_send_requires_disambiguation;
      tc "end one conversation" `Quick test_end_one_conversation;
      tc "mixed population" `Quick test_mixed_population;
    ] )
