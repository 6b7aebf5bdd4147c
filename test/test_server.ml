(* Server and chain tests: round mechanics, noise accounting, batch
   alignment, invalid-request handling, dialing delivery. *)

open Vuvuzela_crypto
open Vuvuzela_dp
open Vuvuzela

let tiny_noise = Laplace.params ~mu:5. ~b:1.
let tiny_dial_noise = Laplace.params ~mu:2. ~b:1.

let make_chain ?(n = 3) ?(noise = tiny_noise) ?(mode = Noise.Deterministic)
    ?(jobs = 1) () =
  Chain.of_config
    Config.(
      default |> with_seed "test-chain" |> with_n_servers n
      |> with_noise noise |> with_dial_noise tiny_dial_noise
      |> with_noise_mode mode |> with_jobs jobs)

let alice = Types.identity_of_seed (Bytes.of_string "srv-alice")
let bob = Types.identity_of_seed (Bytes.of_string "srv-bob")

(* Build a raw exchange request for [identity] talking to [peer] (or a
   fake request when [peer] is None). *)
let request ?rng ~chain ~round ?peer identity msg =
  let session =
    match peer with
    | Some pk -> Conversation.derive ~identity ~peer_pk:pk
    | None -> Conversation.fake ?rng ~identity ()
  in
  let payload = Conversation.exchange_payload session ~round msg in
  let w =
    Vuvuzela_mixnet.Onion.wrap ?rng ~server_pks:(Chain.public_keys chain)
      ~round payload
  in
  (session, w)

let test_chain_exchange_two_users () =
  let chain = make_chain () in
  let round = 1 in
  let rng = Drbg.of_string "t1" in
  let ma = Message.Data { seq = 1; ack = 0; text = "from alice" } in
  let mb = Message.Data { seq = 1; ack = 0; text = "from bob" } in
  let sa, wa = request ~rng ~chain ~round ~peer:bob.Types.public alice ma in
  let sb, wb = request ~rng ~chain ~round ~peer:alice.Types.public bob mb in
  let results = Chain.conversation_round_exn chain ~round [| wa.onion; wb.onion |] in
  Alcotest.(check int) "slot-aligned results" 2 (Array.length results);
  let open_result s (w : Vuvuzela_mixnet.Onion.wrapped) r =
    match Vuvuzela_mixnet.Onion.unwrap_reply ~secrets:w.secrets ~round r with
    | None -> Alcotest.fail "reply unwrap failed"
    | Some result -> Conversation.read_result s ~round result
  in
  (match open_result sa wa results.(0) with
  | Some m -> Alcotest.(check bool) "alice got bob's" true (Message.equal m mb)
  | None -> Alcotest.fail "alice got nothing");
  match open_result sb wb results.(1) with
  | Some m -> Alcotest.(check bool) "bob got alice's" true (Message.equal m ma)
  | None -> Alcotest.fail "bob got nothing"

let test_chain_idle_user_gets_nothing () =
  let chain = make_chain () in
  let rng = Drbg.of_string "t2" in
  let round = 3 in
  let s, w = request ~rng ~chain ~round alice (Message.Empty { ack = 0 }) in
  let results = Chain.conversation_round_exn chain ~round [| w.onion |] in
  match Vuvuzela_mixnet.Onion.unwrap_reply ~secrets:w.secrets ~round results.(0) with
  | None -> Alcotest.fail "reply unwrap failed"
  | Some result ->
      Alcotest.(check bool) "idle result unreadable" true
        (Conversation.read_result s ~round result = None)

let test_histogram_includes_noise () =
  let chain = make_chain ~n:3 () in
  let rng = Drbg.of_string "t3" in
  let round = 1 in
  let _, wa = request ~rng ~chain ~round ~peer:bob.Types.public alice (Message.Empty { ack = 0 }) in
  let _, wb = request ~rng ~chain ~round ~peer:alice.Types.public bob (Message.Empty { ack = 0 }) in
  ignore (Chain.conversation_round_exn chain ~round [| wa.onion; wb.onion |]);
  match Chain.observed_histogram chain with
  | None -> Alcotest.fail "no histogram"
  | Some h ->
      (* Deterministic noise: 2 mixing servers × (5 singles + 3 pairs). *)
      Alcotest.(check int) "m1 = noise singles" 10 h.Deaddrop.m1;
      Alcotest.(check int) "m2 = real pair + noise pairs" 7 h.Deaddrop.m2;
      Alcotest.(check int) "no multi-access drops" 0 h.Deaddrop.m_more

let test_noise_metrics () =
  let chain = make_chain ~n:3 () in
  ignore (Chain.conversation_round_exn chain ~round:1 [||]);
  (* Mixing servers add noise; the last does not (conversation). *)
  let m0 = Server.metrics (Chain.server chain 0) in
  let m1 = Server.metrics (Chain.server chain 1) in
  let m2 = Server.metrics (Chain.server chain 2) in
  Alcotest.(check int) "server 0 singles" 5 m0.Server.noise_singles;
  Alcotest.(check int) "server 0 pairs" 3 m0.Server.noise_pairs;
  Alcotest.(check int) "server 1 singles" 5 m1.Server.noise_singles;
  Alcotest.(check int) "last server adds no conversation noise" 0
    m2.Server.noise_singles;
  (* Request counts grow down the chain: 0 → 11 → 22. *)
  Alcotest.(check int) "server 1 sees server 0 noise" 11 m1.Server.requests_in;
  Alcotest.(check int) "server 2 sees both" 22 m2.Server.requests_in

let test_invalid_onion_keeps_alignment () =
  let chain = make_chain () in
  let rng = Drbg.of_string "t4" in
  let round = 2 in
  let ma = Message.Data { seq = 1; ack = 0; text = "real" } in
  let mb = Message.Data { seq = 1; ack = 0; text = "also real" } in
  let sa, wa = request ~rng ~chain ~round ~peer:bob.Types.public alice ma in
  let _, wb = request ~rng ~chain ~round ~peer:alice.Types.public bob mb in
  let junk = Drbg.generate rng (Bytes.length wa.onion) in
  let results =
    Chain.conversation_round_exn chain ~round [| wa.onion; junk; wb.onion |]
  in
  Alcotest.(check int) "three results" 3 (Array.length results);
  (* The real pair still exchanges despite the junk slot between them. *)
  (match Vuvuzela_mixnet.Onion.unwrap_reply ~secrets:wa.secrets ~round results.(0) with
  | None -> Alcotest.fail "alice reply unwrap failed"
  | Some result -> (
      match Conversation.read_result sa ~round result with
      | Some m -> Alcotest.(check bool) "alice got bob" true (Message.equal m mb)
      | None -> Alcotest.fail "alice got nothing"));
  (* All replies are the same size (uniformity). *)
  Alcotest.(check int) "junk reply same size"
    (Bytes.length results.(0))
    (Bytes.length results.(1));
  Alcotest.(check int) "invalid metric" 1
    (Server.metrics (Chain.server chain 0)).Server.invalid_requests

(* Curve25519's seven low-order points (libsodium's blacklist, as in
   test/prop/prop_x25519.ml): u = 0, u = 1, the two order-8 points, and
   p - 1, p, p + 1.  The ladder maps each to an all-zero shared point. *)
let low_order_points =
  [
    "0000000000000000000000000000000000000000000000000000000000000000";
    "0100000000000000000000000000000000000000000000000000000000000000";
    "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800";
    "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157";
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
  ]

(* A server peels a chunk of onions as one batch with one field
   inversion, so a low-order key's zero denominator must fail its own
   onion alone.  Seven onions keyed by the seven low-order points sit
   between a real pair: at jobs 1 all nine are one batch, at jobs 2 the
   batch splits across two chunks. *)
let test_low_order_keys_fail_alone () =
  List.iter
    (fun jobs ->
      let chain = make_chain ~jobs () in
      let rng = Drbg.of_string "t-low-order" in
      let round = 2 in
      let ma = Message.Data { seq = 1; ack = 0; text = "real" } in
      let mb = Message.Data { seq = 1; ack = 0; text = "also real" } in
      let sa, wa = request ~rng ~chain ~round ~peer:bob.Types.public alice ma in
      let sb, wb = request ~rng ~chain ~round ~peer:alice.Types.public bob mb in
      let hostile =
        List.map
          (fun u ->
            let onion = Drbg.generate rng (Bytes.length wa.onion) in
            Bytes.blit (Bytes_util.of_hex u) 0 onion 0 Curve25519.key_len;
            onion)
          low_order_points
      in
      let results =
        Chain.conversation_round_exn chain ~round
          (Array.of_list ((wa.onion :: hostile) @ [ wb.onion ]))
      in
      Chain.shutdown chain;
      let what s = Printf.sprintf "jobs %d: %s" jobs s in
      Alcotest.(check int) (what "nine results") 9 (Array.length results);
      let got s (w : Vuvuzela_mixnet.Onion.wrapped) r =
        match Vuvuzela_mixnet.Onion.unwrap_reply ~secrets:w.secrets ~round r with
        | None -> Alcotest.fail (what "reply unwrap failed")
        | Some result -> Conversation.read_result s ~round result
      in
      (match got sa wa results.(0) with
      | Some m -> Alcotest.(check bool) (what "alice got bob") true (Message.equal m mb)
      | None -> Alcotest.fail (what "alice got nothing"));
      (match got sb wb results.(8) with
      | Some m -> Alcotest.(check bool) (what "bob got alice") true (Message.equal m ma)
      | None -> Alcotest.fail (what "bob got nothing"));
      Array.iter
        (fun r ->
          Alcotest.(check int) (what "every reply the same size")
            (Bytes.length results.(0)) (Bytes.length r))
        results;
      Alcotest.(check int) (what "hop 0 counts 7 invalid") 7
        (Server.metrics (Chain.server chain 0)).Server.invalid_requests)
    [ 1; 2 ]

let test_empty_round () =
  let chain = make_chain () in
  let results = Chain.conversation_round_exn chain ~round:1 [||] in
  Alcotest.(check int) "no client results" 0 (Array.length results)

let test_single_server_chain () =
  (* Degenerate chain of one server: no mixing, still functional. *)
  let chain = make_chain ~n:1 () in
  let rng = Drbg.of_string "t5" in
  let round = 1 in
  let ma = Message.Data { seq = 1; ack = 0; text = "a" } in
  let mb = Message.Data { seq = 1; ack = 0; text = "b" } in
  let sa, wa = request ~rng ~chain ~round ~peer:bob.Types.public alice ma in
  let _, wb = request ~rng ~chain ~round ~peer:alice.Types.public bob mb in
  let results = Chain.conversation_round_exn chain ~round [| wa.onion; wb.onion |] in
  match Vuvuzela_mixnet.Onion.unwrap_reply ~secrets:wa.secrets ~round results.(0) with
  | None -> Alcotest.fail "unwrap failed"
  | Some result -> (
      match Conversation.read_result sa ~round result with
      | Some m -> Alcotest.(check bool) "exchange works" true (Message.equal m mb)
      | None -> Alcotest.fail "no message")

let test_rounds_are_independent () =
  let chain = make_chain () in
  let rng = Drbg.of_string "t6" in
  (* A request wrapped for round 1 replayed in round 2 must die at the
     first server (nonce mismatch): its reply slot is garbage. *)
  let _, w = request ~rng ~chain ~round:1 ~peer:bob.Types.public alice (Message.Empty { ack = 0 }) in
  ignore (Chain.conversation_round_exn chain ~round:1 [| w.onion |]);
  let results = Chain.conversation_round_exn chain ~round:2 [| w.onion |] in
  Alcotest.(check bool) "replayed onion yields no readable reply" true
    (Vuvuzela_mixnet.Onion.unwrap_reply ~secrets:w.secrets ~round:2 results.(0) = None)

let test_backward_unknown_round () =
  let chain = make_chain () in
  Alcotest.check_raises "unknown round"
    (Invalid_argument "Server: backward pass for unknown round") (fun () ->
      ignore (Server.conv_backward (Chain.server chain 0) ~round:99 [||]))

(* ------------------------------------------------------------------ *)
(* Dialing rounds                                                      *)
(* ------------------------------------------------------------------ *)

let test_dialing_end_to_end () =
  let chain = make_chain () in
  let rng = Drbg.of_string "t7" in
  let m = 4 in
  let round = 1 in
  let wrap payload =
    (Vuvuzela_mixnet.Onion.wrap ~rng ~server_pks:(Chain.public_keys chain)
       ~round payload)
      .Vuvuzela_mixnet.Onion.onion
  in
  let invite = wrap (Dialing.invite ~rng ~identity:alice ~callee_pk:bob.Types.public ~m ()) in
  let idle = wrap (Dialing.noop ~rng ()) in
  let acks = Chain.dialing_round_exn chain ~round ~m [| invite; idle |] in
  Alcotest.(check int) "both acked" 2 (Array.length acks);
  (* Bob downloads his drop and finds Alice. *)
  let index = Deaddrop.Invitation.index_of ~m bob.Types.public in
  let drop = Chain.fetch_invitations chain ~index in
  (match Dialing.scan ~identity:bob drop with
  | [ caller ] ->
      Alcotest.(check string) "caller is alice"
        (Bytes_util.to_hex alice.Types.public)
        (Bytes_util.to_hex caller)
  | l -> Alcotest.failf "found %d callers" (List.length l));
  (* Every drop contains noise from all three servers (deterministic
     µ=2 each → at least 6 invitations even with no real traffic). *)
  for i = 0 to m - 1 do
    let size = List.length (Chain.fetch_invitations chain ~index:i) in
    if size < 6 then Alcotest.failf "drop %d has only %d invitations" i size
  done

let test_dialing_noop_not_delivered () =
  let chain = make_chain () in
  let rng = Drbg.of_string "t8" in
  let m = 2 in
  let wrap payload =
    (Vuvuzela_mixnet.Onion.wrap ~rng ~server_pks:(Chain.public_keys chain)
       ~round:1 payload)
      .Vuvuzela_mixnet.Onion.onion
  in
  ignore (Chain.dialing_round_exn chain ~round:1 ~m [| wrap (Dialing.noop ~rng ()) |]);
  (* No real invitation anywhere: scans find nothing. *)
  for i = 0 to m - 1 do
    let drop = Chain.fetch_invitations chain ~index:i in
    Alcotest.(check int) "no decryptable invitations" 0
      (List.length (Dialing.scan ~identity:bob drop))
  done

let test_dialing_out_of_range_index_dropped () =
  let chain = make_chain () in
  let rng = Drbg.of_string "t9" in
  let m = 2 in
  (* An adversarial client addresses drop 7 with m=2: discarded. *)
  let payload = Dialing.noise ~rng ~index:7 () in
  let onion =
    (Vuvuzela_mixnet.Onion.wrap ~rng ~server_pks:(Chain.public_keys chain)
       ~round:1 payload)
      .Vuvuzela_mixnet.Onion.onion
  in
  let acks = Chain.dialing_round_exn chain ~round:1 ~m [| onion |] in
  Alcotest.(check int) "still acked (uniform replies)" 1 (Array.length acks)

(* X25519 operations by kind over one round: every wrapped layer runs
   two combs (its fresh key on the base point, its DH on the server key's
   memoised table) and no ladder; every peel runs one ladder.  Hop 0
   adds nu0 two-layer noise onions and hop 1 nu1 one-layer ones. *)
let test_x25519_ops_by_kind () =
  let chain = make_chain () in
  let round = 1 in
  let n = 6 in
  let rng = Drbg.of_string "t-ops-by-kind" in
  let payloads =
    Array.init n (fun i ->
        let session =
          Conversation.fake ~rng
            ~identity:(if i mod 2 = 0 then alice else bob)
            ()
        in
        Conversation.exchange_payload session ~round
          (Message.Empty { ack = 0 }))
  in
  let delta (a : Curve25519.op_counts) (b : Curve25519.op_counts) =
    (b.ladder - a.ladder, b.base - a.base, b.keyed - a.keyed)
  in
  let ops = Alcotest.(triple int int int) in
  let c0 = Curve25519.op_counts () in
  let onions =
    Array.map
      (fun p ->
        (Vuvuzela_mixnet.Onion.wrap ~rng ~server_pks:(Chain.public_keys chain)
           ~round p)
          .Vuvuzela_mixnet.Onion.onion)
      payloads
  in
  let c1 = Curve25519.op_counts () in
  Alcotest.check ops "client wraps: (ladder, base, keyed)"
    (0, 3 * n, 3 * n) (delta c0 c1);
  ignore (Chain.conversation_round_exn chain ~round onions);
  let c2 = Curve25519.op_counts () in
  let noise i =
    let m = Server.metrics (Chain.server chain i) in
    m.Server.noise_singles + (2 * m.Server.noise_pairs)
  in
  let nu0 = noise 0 and nu1 = noise 1 in
  Alcotest.(check bool) "both mixing hops add noise" true (nu0 > 0 && nu1 > 0);
  Alcotest.check ops "chain round: (ladder, base, keyed)"
    ((3 * n) + (2 * nu0) + nu1, (2 * nu0) + nu1, (2 * nu0) + nu1)
    (delta c1 c2)

let suite =
  let tc = Alcotest.test_case in
  ( "server",
    [
      tc "exchange between two users" `Quick test_chain_exchange_two_users;
      tc "idle user reads nothing" `Quick test_chain_idle_user_gets_nothing;
      tc "histogram includes noise" `Quick test_histogram_includes_noise;
      tc "noise metrics per server" `Quick test_noise_metrics;
      tc "invalid onion keeps alignment" `Quick test_invalid_onion_keeps_alignment;
      tc "low-order keys fail alone in a peel batch" `Quick
        test_low_order_keys_fail_alone;
      tc "empty round" `Quick test_empty_round;
      tc "single-server chain" `Quick test_single_server_chain;
      tc "rounds are independent (replay)" `Quick test_rounds_are_independent;
      tc "backward unknown round" `Quick test_backward_unknown_round;
      tc "dialing end to end" `Quick test_dialing_end_to_end;
      tc "dialing noop not delivered" `Quick test_dialing_noop_not_delivered;
      tc "dialing out-of-range index" `Quick test_dialing_out_of_range_index_dropped;
      tc "x25519 operations by kind per round" `Quick test_x25519_ops_by_kind;
    ] )

(* The replay/tagging attack and its defense: duplicating a victim's
   onion must NOT produce a third access to her dead drop (m_more is
   observable and uncovered by noise). *)
let test_replay_dedup () =
  let chain = make_chain () in
  let rng = Drbg.of_string "t-replay" in
  let round = 4 in
  let ma = Message.Data { seq = 1; ack = 0; text = "victim" } in
  let mb = Message.Data { seq = 1; ack = 0; text = "partner" } in
  let sa, wa = request ~rng ~chain ~round ~peer:bob.Types.public alice ma in
  let _, wb = request ~rng ~chain ~round ~peer:alice.Types.public bob mb in
  (* The adversary injects an exact copy of Alice's onion. *)
  let results =
    Chain.conversation_round_exn chain ~round [| wa.onion; wb.onion; wa.onion |]
  in
  (match Chain.observed_histogram chain with
  | Some h ->
      Alcotest.(check int) "no 3-access drop (replay deduplicated)" 0
        h.Deaddrop.m_more
  | None -> Alcotest.fail "no histogram");
  Alcotest.(check int) "duplicate counted" 1
    (Server.metrics (Chain.server chain 0)).Server.duplicate_requests;
  (* The genuine pair still exchanged. *)
  (match Vuvuzela_mixnet.Onion.unwrap_reply ~secrets:wa.secrets ~round results.(0) with
  | None -> Alcotest.fail "alice reply unwrap failed"
  | Some result -> (
      match Conversation.read_result sa ~round result with
      | Some m -> Alcotest.(check bool) "exchange intact" true (Message.equal m mb)
      | None -> Alcotest.fail "alice got nothing"));
  (* The duplicate slot still got a same-size (garbage) reply. *)
  Alcotest.(check int) "replayed slot reply size"
    (Bytes.length results.(0))
    (Bytes.length results.(2))

(* The same replay through an alias of Alice's outer key.  X25519
   ignores bit 255 of a u-coordinate, and a clamped scalar is a multiple
   of 8, so P and P + T share every DH result for each point T of order
   dividing 8; for T = (0, 0), u(P + T) = 1/u.  Either alias peels to
   Alice's inner onion under her layer secret, so hop 0 must count it as
   a duplicate.  Otherwise it forwards two identical inner onions, and
   the next hop learns which two of hop 0's outputs belong together. *)
let test_aliased_replay_dedup () =
  let flip_top_bit u =
    let a = Bytes.copy u in
    Bytes_util.set_u8 a 31 (Bytes_util.get_u8 u 31 lxor 0x80);
    a
  in
  let inverse u =
    let o = Fe25519.create () in
    Fe25519.invert o (Fe25519.unpack u);
    Fe25519.pack o
  in
  List.iter
    (fun (name, alias) ->
      let chain = make_chain () in
      let rng = Drbg.of_string "t-alias" in
      let round = 4 in
      let ma = Message.Data { seq = 1; ack = 0; text = "victim" } in
      let mb = Message.Data { seq = 1; ack = 0; text = "partner" } in
      let sa, wa = request ~rng ~chain ~round ~peer:bob.Types.public alice ma in
      let _, wb = request ~rng ~chain ~round ~peer:alice.Types.public bob mb in
      let copy = Bytes.copy wa.onion in
      Bytes.blit (alias (Bytes.sub wa.onion 0 Curve25519.key_len)) 0 copy 0
        Curve25519.key_len;
      let results =
        Chain.conversation_round_exn chain ~round [| wa.onion; wb.onion; copy |]
      in
      let count i =
        (Server.metrics (Chain.server chain i)).Server.duplicate_requests
      in
      let what s = Printf.sprintf "%s alias: %s" name s in
      Alcotest.(check int) (what "hop 0 counts a duplicate") 1 (count 0);
      Alcotest.(check int) (what "hop 1 counts none") 0 (count 1);
      match
        Vuvuzela_mixnet.Onion.unwrap_reply ~secrets:wa.secrets ~round
          results.(0)
      with
      | None -> Alcotest.fail (what "alice reply unwrap failed")
      | Some result -> (
          match Conversation.read_result sa ~round result with
          | Some m ->
              Alcotest.(check bool) (what "exchange intact") true
                (Message.equal m mb)
          | None -> Alcotest.fail (what "alice got nothing")))
    [ ("bit-255", flip_top_bit); ("1/u", inverse) ]

(* Wrong-sized onions are rejected at ingress before mixing. *)
let test_size_uniformity_ingress () =
  let chain = make_chain () in
  let rng = Drbg.of_string "t-size" in
  let round = 5 in
  let _, wa = request ~rng ~chain ~round ~peer:bob.Types.public alice (Message.Empty { ack = 0 }) in
  let short = Drbg.generate rng (Bytes.length wa.onion - 1) in
  let long = Drbg.generate rng (Bytes.length wa.onion + 48) in
  let results = Chain.conversation_round_exn chain ~round [| short; wa.onion; long |] in
  Alcotest.(check int) "all slots answered" 3 (Array.length results);
  Alcotest.(check int) "both rejected at server 0" 2
    (Server.metrics (Chain.server chain 0)).Server.invalid_requests

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "replay attack deduplicated" `Quick test_replay_dedup;
        Alcotest.test_case "aliased replay deduplicated" `Quick
          test_aliased_replay_dedup;
        Alcotest.test_case "size uniformity at ingress" `Quick test_size_uniformity_ingress;
      ] )

(* Protocol-level observable invariant: in deterministic-noise mode, the
   last server's histogram is exactly
     m2 = (#reciprocated pairs) + servers_noising × ⌈µ/2⌉
     m1 = (#unreciprocated/idle requests) + servers_noising × ⌈µ⌉
   for ANY population shape. *)
let qcheck_observable_invariant =
  QCheck.Test.make ~name:"histogram invariant for any population" ~count:12
    QCheck.(pair (int_range 0 4) (int_range 0 5))
    (fun (n_pairs, n_idle) ->
      let chain = make_chain () in
      let rng = Drbg.of_string "prop-hist" in
      let round = 1 in
      let requests = ref [] in
      for i = 0 to n_pairs - 1 do
        let a = Types.identity_of_seed (Bytes.of_string (Printf.sprintf "pa%d" i)) in
        let b = Types.identity_of_seed (Bytes.of_string (Printf.sprintf "pb%d" i)) in
        let _, wa = request ~rng ~chain ~round ~peer:b.Types.public a (Message.Empty { ack = 0 }) in
        let _, wb = request ~rng ~chain ~round ~peer:a.Types.public b (Message.Empty { ack = 0 }) in
        requests := wb.onion :: wa.onion :: !requests
      done;
      for i = 0 to n_idle - 1 do
        let u = Types.identity_of_seed (Bytes.of_string (Printf.sprintf "pi%d" i)) in
        let _, w = request ~rng ~chain ~round u (Message.Empty { ack = 0 }) in
        requests := w.onion :: !requests
      done;
      ignore (Chain.conversation_round_exn chain ~round (Array.of_list !requests));
      match Chain.observed_histogram chain with
      | Some h ->
          (* tiny_noise µ=5: 2 noising servers × 5 singles, × 3 pairs. *)
          h.Deaddrop.m2 = n_pairs + (2 * 3)
          && h.Deaddrop.m1 = n_idle + (2 * 5)
          && h.Deaddrop.m_more = 0
      | None -> false)

let suite =
  ( fst suite,
    snd suite @ [ QCheck_alcotest.to_alcotest ~long:false qcheck_observable_invariant ] )
