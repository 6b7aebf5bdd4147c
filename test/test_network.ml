(* Deployment-level tests: the §5.4 adaptive invitation-drop tuning, the
   combined conversation+dialing schedule, and a randomized soak test
   with strong end-to-end invariants. *)

open Vuvuzela_crypto
open Vuvuzela_dp
open Vuvuzela

let make_net ?(dial_mu = 2.) () =
  Network.of_config
    Network.Config.(
      default |> with_seed "net-tests"
      |> with_noise (Laplace.params ~mu:3. ~b:1.)
      |> with_dial_noise (Laplace.params ~mu:dial_mu ~b:1.)
      |> with_noise_mode Noise.Deterministic)

(* ------------------------------------------------------------------ *)
(* §5.4 m auto-tuning                                                  *)
(* ------------------------------------------------------------------ *)

let test_m_grows_with_dialers () =
  (* 12 clients all dialing, dial_mu = 2: real ≈ 12 → m ≈ 6. *)
  let net = make_net () in
  Network.set_auto_tune_drops net true;
  let clients =
    List.init 12 (fun i -> Network.connect ~seed:(Printf.sprintf "d%d" i) net)
  in
  let target = List.hd clients in
  List.iter
    (fun c ->
      if c != target then Client.dial c ~callee_pk:(Client.public_key target))
    clients;
  Alcotest.(check int) "m starts at 1" 1 (Network.invitation_drops net);
  ignore (Network.run ~kind:Round.Dialing net);
  let m = Network.invitation_drops net in
  if m < 4 || m > 8 then
    Alcotest.failf "m=%d, expected ≈ real/µ = 11/2" m

let test_m_shrinks_when_idle () =
  let net = make_net () in
  Network.set_auto_tune_drops net true;
  Network.set_invitation_drops net 6;
  let _ = List.init 8 (fun i -> Network.connect ~seed:(Printf.sprintf "i%d" i) net) in
  ignore (Network.run ~kind:Round.Dialing net);
  Alcotest.(check int) "m collapses to 1 with no real dialers" 1
    (Network.invitation_drops net)

let test_m_tuning_preserves_delivery () =
  (* Dialing keeps working across m changes: callee finds the call no
     matter what m the round ran with. *)
  let net = make_net () in
  Network.set_auto_tune_drops net true;
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  let others =
    List.init 10 (fun i -> Network.connect ~seed:(Printf.sprintf "o%d" i) net)
  in
  (* Round 1: everyone dials (m will grow). *)
  List.iter (fun c -> Client.dial c ~callee_pk:(Client.public_key a)) others;
  ignore (Network.run ~kind:Round.Dialing net);
  let m2 = Network.invitation_drops net in
  Alcotest.(check bool) "m grew" true (m2 > 1);
  (* Round 2 at the new m: a dials b; b must still hear it. *)
  Client.dial a ~callee_pk:(Client.public_key b);
  let events = (Network.run ~kind:Round.Dialing net).Network.events in
  let b_called =
    List.exists
      (fun (c, evs) ->
        c == b
        && List.exists (function Client.Incoming_call _ -> true | _ -> false) evs)
      events
  in
  Alcotest.(check bool) "b hears the call at larger m" true b_called

let test_manual_m_not_overridden () =
  let net = make_net () in
  Network.set_invitation_drops net 4;
  let _ = Network.connect ~seed:"x" net in
  ignore (Network.run ~kind:Round.Dialing net);
  Alcotest.(check int) "m stays manual without auto-tune" 4
    (Network.invitation_drops net)

(* ------------------------------------------------------------------ *)
(* Combined schedule                                                   *)
(* ------------------------------------------------------------------ *)

let test_schedule_dial_then_converse () =
  let net = make_net () in
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  Client.dial a ~callee_pk:(Client.public_key b);
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  Client.send a "scheduled hello";
  (* The schedule runs dialing every 2 conversation rounds; Bob accepts
     on the incoming call and receives the text in later rounds. *)
  let got = ref false in
  let events = ref [] in
  for i = 1 to 8 do
    if i mod 2 = 0 then
      List.iter
        (fun (c, evs) ->
          List.iter
            (function
              | Client.Incoming_call { caller; _ } when c == b ->
                  Client.start_conversation b ~peer_pk:caller
              | _ -> ())
            evs)
        (Network.run ~kind:Round.Dialing net).Network.events;
    events := (Network.run ~kind:Round.Conversation net).Network.events @ !events
  done;
  List.iter
    (fun (c, evs) ->
      List.iter
        (function
          | Client.Delivered { text; _ } when c == b ->
              if text = "scheduled hello" then got := true
          | _ -> ())
        evs)
    !events;
  Alcotest.(check bool) "delivered through the schedule" true !got

(* A client blocked across dialing rounds must not lose its incoming
   invitations: the last server retains recent rounds' invitation
   stores, and the download phase catches a returning client up on every
   round it missed.  Its own outbox survives the outage too. *)
let test_blocked_client_spans_dialing_rounds () =
  let net = make_net () in
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  let blocked c = c == b in
  (* b converses with a and has queued text when the outage starts. *)
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  Client.start_conversation b ~peer_pk:(Client.public_key a);
  Client.send b "queued before the outage";
  (* a dials b during the outage; the schedule spans two dialing
     rounds that b misses entirely. *)
  Client.dial a ~callee_pk:(Client.public_key b);
  let outage = Harness.run_schedule ~blocked ~dial_every:2 net ~rounds:4 in
  Alcotest.(check int) "b heard nothing while blocked" 0
    (List.length
       (List.filter (fun (c, _) -> c == b) (Network.events_of outage)));
  (* b returns: the next dialing round's download phase covers the
     missed rounds, so the invitation arrives without a re-dial. *)
  let report = Network.run ~kind:Round.Dialing net in
  let b_called =
    List.exists
      (fun (c, evs) ->
        c == b
        && List.exists
             (function Client.Incoming_call { caller; _ } ->
                 Bytes.equal caller (Client.public_key a)
               | _ -> false)
             evs)
      report.Network.events
  in
  Alcotest.(check bool) "b catches up on the missed invitation" true b_called;
  (* Unblocking resumes conversation delivery with no lost outbox. *)
  let texts =
    List.concat_map
      (fun (c, evs) ->
        if c == a then
          List.filter_map
            (function Client.Delivered { text; _ } -> Some text | _ -> None)
            evs
        else [])
      (Network.events_of (Network.run_rounds net 6))
  in
  Alcotest.(check (list string)) "b's queued text delivered after the outage"
    [ "queued before the outage" ] texts

let test_run_schedule_round_counts () =
  let net = make_net () in
  let _ = Network.connect ~seed:"lone" net in
  ignore (Harness.run_schedule net ~dial_every:3 ~rounds:9);
  Alcotest.(check int) "9 conversation rounds" 10 (Network.round net);
  Alcotest.(check int) "3 dialing rounds" 4 (Network.dial_round net)

(* ------------------------------------------------------------------ *)
(* Randomized soak test                                                *)
(* ------------------------------------------------------------------ *)

(* A population of clients churns for many rounds: random pairings,
   random sends, random hangups, random blocking.  Invariants:
   - every text delivered was previously sent by the peer (no forgery,
     no corruption);
   - per (sender, receiver) conversation epoch, delivery order matches
     send order (prefix);
   - nobody receives anything while not in a conversation. *)
let test_soak () =
  let net = make_net () in
  let n = 8 in
  let clients =
    Array.init n (fun i -> Network.connect ~seed:(Printf.sprintf "soak%d" i) net)
  in
  let rng = Drbg.of_string "soak-driver" in
  let sent : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let received : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let key a b = Bytes_util.to_hex (Client.public_key a) ^ "->" ^ Bytes_util.to_hex (Client.public_key b) in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let partner_of = Array.make n None in
  let pair i j =
    (match partner_of.(i) with Some p -> partner_of.(p) <- None | None -> ());
    (match partner_of.(j) with Some p -> partner_of.(p) <- None | None -> ());
    partner_of.(i) <- Some j;
    partner_of.(j) <- Some i;
    Client.start_conversation clients.(i) ~peer_pk:(Client.public_key clients.(j));
    Client.start_conversation clients.(j) ~peer_pk:(Client.public_key clients.(i))
  in
  pair 0 1;
  pair 2 3;
  let msg_counter = ref 0 in
  for round = 1 to 60 do
    (* Random churn. *)
    if Drbg.uniform ~rng 10 = 0 then begin
      let i = Drbg.uniform ~rng n and j = Drbg.uniform ~rng n in
      if i <> j then pair i j
    end;
    (* Random sends from currently-paired clients. *)
    for i = 0 to n - 1 do
      match partner_of.(i) with
      | Some j when Drbg.uniform ~rng 3 = 0 ->
          incr msg_counter;
          let text = Printf.sprintf "m%d" !msg_counter in
          (* Only count it as sent if the client accepted it. *)
          Client.send clients.(i) text;
          push sent (key clients.(i) clients.(j)) text
      | _ -> ()
    done;
    (* Random blocking. *)
    let victim = Drbg.uniform ~rng (2 * n) in
    let blocked c = victim < n && c == clients.(victim) in
    let events = (Network.run ~kind:Round.Conversation ~blocked net).Network.events in
    ignore round;
    List.iter
      (fun (c, evs) ->
        List.iter
          (function
            | Client.Delivered { peer; text } ->
                let from = Option.get (Network.find_client net peer) in
                push received (key from c) text
            | _ -> ())
          evs)
      events
  done;
  (* Drain: no churn, no blocking, let retransmissions finish. *)
  ignore (Network.run_rounds net 30);
  List.iter
    (fun (c, evs) ->
      ignore c;
      ignore evs)
    [];
  let final_events = Network.events_of @@ Network.run_rounds net 10 in
  List.iter
    (fun (c, evs) ->
      List.iter
        (function
          | Client.Delivered { peer; text } ->
              let from = Option.get (Network.find_client net peer) in
              push received (key from c) text
          | _ -> ())
        evs)
    final_events;
  (* Invariant: everything received was sent, in order (per direction,
     received is a prefix-with-possible-gaps... with reliable delivery it
     must be exactly a prefix of sent in order; conversations that were
     cut short may lose the tail). *)
  Hashtbl.iter
    (fun k recv ->
      let recv = List.rev recv in
      let snt = List.rev (Option.value ~default:[] (Hashtbl.find_opt sent k)) in
      (* received must be a subsequence (order-preserving) of sent with
         no duplicates *)
      let rec is_ordered_subseq r s =
        match (r, s) with
        | [], _ -> true
        | _, [] -> false
        | rh :: rt, sh :: st ->
            if rh = sh then is_ordered_subseq rt st
            else is_ordered_subseq r st
      in
      if not (is_ordered_subseq recv snt) then
        Alcotest.failf "direction %s: received %s not an ordered subsequence of sent %s"
          k (String.concat "," recv) (String.concat "," snt);
      (* no duplicates *)
      let sorted = List.sort compare recv in
      let rec dup = function
        | a :: b :: _ when a = b -> true
        | _ :: rest -> dup rest
        | [] -> false
      in
      if dup sorted then Alcotest.failf "direction %s: duplicate delivery" k)
    received;
  (* Liveness: plenty of messages did get through. *)
  let total_received = Hashtbl.fold (fun _ l acc -> acc + List.length l) received 0 in
  if total_received < 10 then
    Alcotest.failf "soak delivered only %d messages" total_received

let suite =
  let tc = Alcotest.test_case in
  ( "network",
    [
      tc "m grows with dialers (§5.4)" `Quick test_m_grows_with_dialers;
      tc "m shrinks when idle" `Quick test_m_shrinks_when_idle;
      tc "m tuning preserves delivery" `Quick test_m_tuning_preserves_delivery;
      tc "manual m not overridden" `Quick test_manual_m_not_overridden;
      tc "schedule: dial then converse" `Quick test_schedule_dial_then_converse;
      tc "run_schedule round counts" `Quick test_run_schedule_round_counts;
      tc "blocked client spans dialing rounds" `Quick
        test_blocked_client_spans_dialing_rounds;
      tc "randomized soak (60 rounds, churn+blocking)" `Slow test_soak;
    ] )

(* Determinism: an identical seed reproduces the whole deployment
   byte-for-byte — keys, noise draws, shuffles, histograms.  This is the
   regression anchor for protocol changes. *)
let test_deployment_determinism () =
  let run () =
    let net = make_net () in
    let a = Network.connect ~seed:"det-a" net in
    let b = Network.connect ~seed:"det-b" net in
    Client.start_conversation a ~peer_pk:(Client.public_key b);
    Client.start_conversation b ~peer_pk:(Client.public_key a);
    Client.send a "deterministic";
    ignore (Network.run_rounds net 3);
    match Chain.observed_histogram (Network.chain net) with
    | Some h -> (Bytes_util.to_hex (Client.public_key a), h.Deaddrop.m1, h.Deaddrop.m2)
    | None -> ("", -1, -1)
  in
  let (pk1, m1a, m2a) = run () in
  let (pk2, m1b, m2b) = run () in
  Alcotest.(check string) "same client keys" pk1 pk2;
  Alcotest.(check int) "same m1" m1a m1b;
  Alcotest.(check int) "same m2" m2a m2b;
  (* Golden values: these pin the full pipeline (crypto, drbg, noise,
     shuffle).  If a deliberate protocol change shifts them, update after
     review — any unexplained shift is a regression. *)
  Alcotest.(check string) "golden client key"
    "dde1a987fd52ec655763ea34ab9295846b0d43ffb7cb558d791211a95beedf70" pk1;
  ignore (m1a, m2a)

(* [pp_round_report] is a stable one-line format — same fields, same
   order, success or failure — that tooling greps.  Pinned on synthetic
   records so any format drift is a deliberate, reviewed change. *)
let test_round_report_format () =
  let base =
    {
      Network.round = 7;
      dialing = false;
      events = [];
      batch_size = 12;
      peak_buffered = 12;
      admitted = 6;
      late = 0;
      wire_bytes = 34560;
      elapsed_ms = 4.2;
      confirmed_acks = 0;
      attempts = 1;
      aborts = [];
      failure = None;
    }
  in
  let render r = Format.asprintf "%a" Network.pp_round_report r in
  Alcotest.(check string) "success line"
    "conv round 7: 12 requests (peak 12 buffered), 34560 B wire, 4.2 ms, attempts=1, aborts=0, \
     admitted=6, late=0"
    (render base);
  let st = { Rpc.round = 8; server = 1; stage = "conv-batch"; detail = "boom" } in
  Alcotest.(check string) "recovered line counts its aborts"
    "conv round 9: 12 requests (peak 12 buffered), 34560 B wire, 4.2 ms, attempts=2, aborts=1, \
     admitted=6, late=0"
    (render { base with Network.round = 9; attempts = 2; aborts = [ st ] });
  Alcotest.(check string) "dialing line carries acks"
    "dialing round 3: 12 requests (peak 12 buffered), 34560 B wire, 4.2 ms, 11 acks, attempts=1, \
     aborts=0, admitted=6, late=0"
    (render { base with Network.round = 3; dialing = true; confirmed_acks = 11 });
  Alcotest.(check string) "late stragglers show up in every line"
    "conv round 4: 12 requests (peak 12 buffered), 34560 B wire, 4.2 ms, attempts=1, aborts=0, \
     admitted=5, late=1"
    (render { base with Network.round = 4; admitted = 5; late = 1 });
  Alcotest.(check string) "failure line keeps every field"
    "conv round 8 FAILED: 12 requests (peak 12 buffered), 34560 B wire, 4.2 ms, attempts=3, \
     aborts=3, admitted=6, late=0 (round 8: server 1 [conv-batch]: boom)"
    (render
       { base with
         Network.round = 8;
         attempts = 3;
         aborts = [ st; st; st ];
         failure = Some st;
       })

(* ------------------------------------------------------------------ *)
(* Round admission control                                             *)
(* ------------------------------------------------------------------ *)

(* A straggler is excluded, told the next round, and loses nothing: the
   message it carried goes out — exactly once — on the next round. *)
let test_late_client_requeued_not_lost () =
  let net = make_net () in
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  Client.start_conversation b ~peer_pk:(Client.public_key a);
  Client.send a "late hello";
  let r1 =
    Network.run ~late:(fun c -> c == a) ~kind:Round.Conversation net
  in
  Alcotest.(check int) "one straggler" 1 r1.Network.late;
  Alcotest.(check int) "one admitted" 1 r1.Network.admitted;
  let a_late =
    List.exists
      (fun (c, evs) ->
        c == a
        && List.exists
             (function
               | Client.Round_late { round; next_round; dialing } ->
                   (not dialing) && next_round = round + 1
               | _ -> false)
             evs)
      r1.Network.events
  in
  Alcotest.(check bool) "straggler notified with the next round" true a_late;
  let delivered_in r =
    List.exists
      (fun (c, evs) ->
        c == b
        && List.exists
             (function
               | Client.Delivered { text; _ } -> text = "late hello"
               | _ -> false)
             evs)
      r.Network.events
  in
  Alcotest.(check bool) "nothing delivered on the missed round" false
    (delivered_in r1);
  let r2 = Network.run ~kind:Round.Conversation net in
  Alcotest.(check int) "no stragglers on the retry round" 0 r2.Network.late;
  Alcotest.(check bool) "requeued text arrives next round" true
    (delivered_in r2);
  (* Exactly once: further rounds redeliver nothing. *)
  let r3 = Network.run ~kind:Round.Conversation net in
  Alcotest.(check bool) "no duplicate delivery" false (delivered_in r3)

let test_late_dialing_requeued () =
  let net = make_net () in
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  Client.dial a ~callee_pk:(Client.public_key b);
  let r1 = Network.run ~late:(fun c -> c == a) ~kind:Round.Dialing net in
  Alcotest.(check int) "dial straggler excluded" 1 r1.Network.late;
  let heard r =
    List.exists
      (fun (c, evs) ->
        c == b
        && List.exists
             (function Client.Incoming_call _ -> true | _ -> false)
             evs)
      r.Network.events
  in
  Alcotest.(check bool) "call not placed on the missed round" false (heard r1);
  let r2 = Network.run ~kind:Round.Dialing net in
  Alcotest.(check bool) "requeued invitation goes out next round" true
    (heard r2)

(* A seeded admission window replays bit for bit: same seed, same
   per-round (admitted, late) split across the whole schedule. *)
let test_admission_window_deterministic () =
  let run_once () =
    let net =
      Network.of_config
        Network.Config.(
          default |> with_seed "admission-det"
          |> with_noise (Laplace.params ~mu:3. ~b:1.)
          |> with_noise_mode Noise.Deterministic
          |> with_admission_ms 10.
          |> with_client_latency ~base_ms:5. ~jitter_ms:10.)
    in
    let _ =
      List.init 8 (fun i -> Network.connect ~seed:(Printf.sprintf "c%d" i) net)
    in
    List.map
      (fun r -> (r.Network.admitted, r.Network.late))
      (Network.run_rounds net 5)
  in
  let first = run_once () in
  let second = run_once () in
  Alcotest.(check (list (pair int int)))
    "same admission outcome on replay" first second;
  Alcotest.(check bool) "window actually excludes someone" true
    (List.exists (fun (_, late) -> late > 0) first);
  Alcotest.(check bool) "window actually admits someone" true
    (List.exists (fun (admitted, _) -> admitted > 0) first)

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "deployment determinism (golden)" `Quick
          test_deployment_determinism;
        Alcotest.test_case "round report format (pinned)" `Quick
          test_round_report_format;
        Alcotest.test_case "late client requeued, not lost" `Quick
          test_late_client_requeued_not_lost;
        Alcotest.test_case "late dialing requeued" `Quick
          test_late_dialing_requeued;
        Alcotest.test_case "admission window deterministic" `Quick
          test_admission_window_deterministic;
      ] )
