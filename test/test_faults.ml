(* Fault injection and the round supervisor: the fault-plan grammar, the
   one-shot injector, typed shutdown/deadline statuses, bounded retries
   with fresh onions and redrawn noise, client recovery (conversation
   requeue and dialing re-invitation), and adversarial frames surfacing
   as reports instead of exceptions. *)

open Vuvuzela_dp
open Vuvuzela
module Fault = Vuvuzela_faults.Fault

let make_net ?fault_plan ?tap ?round_deadline_ms ?flap_grace_ms ?telemetry
    ?(max_retries = 2) ?(noise_mode = Noise.Deterministic)
    ?(seed = "fault-tests") () =
  let opt f v cfg = match v with None -> cfg | Some v -> f v cfg in
  Network.of_config
    Network.Config.(
      default |> with_seed seed
      |> with_noise (Laplace.params ~mu:3. ~b:1.)
      |> with_dial_noise (Laplace.params ~mu:2. ~b:1.)
      |> with_noise_mode noise_mode
      |> with_max_retries max_retries
      |> opt with_fault_plan fault_plan
      |> opt with_tap tap
      |> opt with_round_deadline_ms round_deadline_ms
      |> opt with_flap_grace_ms flap_grace_ms
      |> opt with_telemetry telemetry)

let pair net =
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  Client.start_conversation b ~peer_pk:(Client.public_key a);
  (a, b)

let delivered_texts ~to_:c reports =
  List.concat_map
    (fun (c', evs) ->
      if c' == c then
        List.filter_map
          (function Client.Delivered { text; _ } -> Some text | _ -> None)
          evs
      else [])
    (Network.events_of reports)

(* ------------------------------------------------------------------ *)
(* Grammar                                                             *)
(* ------------------------------------------------------------------ *)

let test_plan_roundtrip () =
  let plan =
    [
      { Fault.round = 2; server = 1; kind = Fault.Crash };
      { Fault.round = 3; server = 0; kind = Fault.Corrupt_frame 5 };
      { Fault.round = 4; server = 2; kind = Fault.Truncate_frame 10 };
      { Fault.round = 4; server = 2; kind = Fault.Extend_frame 7 };
      { Fault.round = 5; server = 0; kind = Fault.Delay_ms 1000 };
      { Fault.round = 6; server = 1; kind = Fault.Tamper_slot 3 };
      { Fault.round = 7; server = 0; kind = Fault.Drop_link };
    ]
  in
  match Fault.parse (Fault.to_string plan) with
  | Ok plan' ->
      Alcotest.(check bool) "to_string/parse round-trips" true (plan = plan')
  | Error e -> Alcotest.failf "round-trip failed: %s" e

let test_plan_syntax () =
  (match Fault.parse "crash@2:1x3" with
  | Ok faults ->
      Alcotest.(check int) "x3 expands to 3 faults" 3 (List.length faults);
      List.iteri
        (fun i f ->
          Alcotest.(check int) "consecutive rounds" (2 + i) f.Fault.round;
          Alcotest.(check int) "same server" 1 f.Fault.server)
        faults
  | Error e -> Alcotest.failf "x-count parse failed: %s" e);
  (match Fault.parse "  corrupt( 4 ) @ 3 ; drop@9 " with
  | Ok [ { kind = Fault.Corrupt_frame 4; round = 3; server = 0 };
         { kind = Fault.Drop_link; round = 9; server = 0 } ] -> ()
  | Ok _ -> Alcotest.fail "whitespace-tolerant parse got the wrong plan"
  | Error e -> Alcotest.failf "whitespace parse failed: %s" e);
  (match Fault.parse "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty plan must parse to []");
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed plan %S" bad)
    [ "crash"; "explode@2"; "crash@0"; "crash@2x0"; "corrupt(x)@2"; "corrupt(3@2" ]

(* What each kind does, for every kind: the one table a daemon applies. *)
let test_effects_per_kind () =
  let show = function
    | Fault.Lose -> "lose"
    | Fault.Delay ms -> Printf.sprintf "delay %d" ms
    | Fault.Stall ms -> Printf.sprintf "stall %d" ms
    | Fault.Reset -> "reset"
    | Fault.Tamper s -> Printf.sprintf "tamper %d" s
    | Fault.Edit_frame -> "edit-frame"
  in
  List.iter
    (fun (kind, tag, effects) ->
      let name = Format.asprintf "%a" Fault.pp_kind kind in
      Alcotest.(check string) (name ^ ": tag") tag (Fault.tag kind);
      Alcotest.(check (list string))
        (name ^ ": effects") effects
        (List.map show (Fault.effects kind)))
    [
      (Fault.Crash, "crash", [ "lose"; "reset" ]);
      (Fault.Drop_link, "drop-link", [ "lose" ]);
      (Fault.Corrupt_frame 5, "corrupt-frame", [ "edit-frame" ]);
      (Fault.Truncate_frame 10, "truncate-frame", [ "edit-frame" ]);
      (Fault.Extend_frame 7, "extend-frame", [ "edit-frame" ]);
      (Fault.Delay_ms 1000, "delay", [ "delay 1000" ]);
      (Fault.Tamper_slot 3, "tamper-slot", [ "tamper 3" ]);
      (Fault.Slow_link 20, "slow-link", [ "stall 20" ]);
      (Fault.Flap 0, "flap", [ "stall 0"; "reset" ]);
      (Fault.Partition 50, "partition", [ "lose"; "stall 50"; "reset" ]);
    ]

let test_injector_one_shot () =
  let plan =
    match Fault.parse "crash@2:1;drop@2:1;delay(5)@3" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let inj = Fault.injector plan in
  Alcotest.(check int) "3 pending" 3 (Fault.pending inj);
  Alcotest.(check (list string)) "no faults at the wrong site" []
    (List.map (Format.asprintf "%a" Fault.pp_kind)
       (Fault.fire inj ~round:2 ~server:0));
  Alcotest.(check int) "both round-2 faults fire together" 2
    (List.length (Fault.fire inj ~round:2 ~server:1));
  Alcotest.(check int) "fired faults are consumed" 0
    (List.length (Fault.fire inj ~round:2 ~server:1));
  Alcotest.(check int) "delay fires once" 1
    (List.length (Fault.fire inj ~round:3 ~server:0));
  Alcotest.(check int) "exhausted" 0 (Fault.pending inj)

(* ------------------------------------------------------------------ *)
(* Shutdown is a typed status (satellite: no silent sequential rounds)  *)
(* ------------------------------------------------------------------ *)

let test_round_after_shutdown_is_typed () =
  let net = make_net () in
  let _ = pair net in
  Network.shutdown net;
  Alcotest.(check bool) "chain reports shut down" true
    (Chain.is_shut_down (Network.chain net));
  (* Chain level. *)
  (match
     Chain.conversation_round_streamed (Network.chain net) ~round:99
       ~produce:(fun feed -> feed (Array.make 1 (Bytes.create 8)))
   with
  | Error st ->
      Alcotest.(check bool) "typed chain-shutdown status" true
        (Rpc.is_chain_shutdown st);
      Alcotest.(check bool) "shutdown is not retryable" false (Rpc.retryable st)
  | Ok _ -> Alcotest.fail "round ran after shutdown");
  (* Supervisor level: reported as a failure, never retried. *)
  let report = Network.run ~kind:Round.Conversation net in
  (match report.Network.failure with
  | Some st ->
      Alcotest.(check bool) "supervisor surfaces chain-shutdown" true
        (Rpc.is_chain_shutdown st)
  | None -> Alcotest.fail "round succeeded after shutdown");
  Alcotest.(check int) "non-retryable: a single attempt" 1
    report.Network.attempts;
  match Network.run ~kind:Round.Dialing net with
  | { Network.failure = Some st; attempts = 1; _ } ->
      Alcotest.(check bool) "dialing too" true (Rpc.is_chain_shutdown st)
  | _ -> Alcotest.fail "dialing round not cleanly refused after shutdown"

(* ------------------------------------------------------------------ *)
(* events_of / failures_of (satellite)                                 *)
(* ------------------------------------------------------------------ *)

let test_events_of_skips_failures () =
  (* Rounds 2 and 3 both crash with max_retries = 1: the round fails for
     good.  events_of must not leak its Round_failed notifications as
     protocol events; failures_of must surface the status. *)
  let plan = Result.get_ok (Fault.parse "crash@2x2") in
  let net = make_net ~fault_plan:plan ~max_retries:1 () in
  let a, b = pair net in
  Client.send a "survives the outage";
  let reports = Network.run_rounds net 6 in
  let failed = List.filter (fun r -> r.Network.failure <> None) reports in
  Alcotest.(check int) "exactly one round ultimately failed" 1
    (List.length failed);
  let r = List.hd failed in
  Alcotest.(check int) "both attempts recorded" 2 r.Network.attempts;
  Alcotest.(check int) "both aborts recorded" 2 (List.length r.Network.aborts);
  Alcotest.(check bool) "failed report carries Round_failed events" true
    (List.for_all
       (fun (_, evs) ->
         List.exists
           (function Client.Round_failed _ -> true | _ -> false)
           evs)
       r.Network.events
    && r.Network.events <> []);
  Alcotest.(check bool) "events_of drops the failed report" true
    (List.for_all
       (fun (_, evs) ->
         List.for_all
           (function Client.Round_failed _ -> false | _ -> true)
           evs)
       (Network.events_of reports));
  Alcotest.(check int) "failures_of surfaces it" 1
    (List.length (Network.failures_of reports));
  Alcotest.(check (list string)) "the text still arrives afterwards"
    [ "survives the outage" ]
    (delivered_texts ~to_:b reports)

(* ------------------------------------------------------------------ *)
(* Adversarial frames become reports, not exceptions (satellite)       *)
(* ------------------------------------------------------------------ *)

let test_adversarial_frames_are_reports () =
  List.iter
    (fun (plan_s, what) ->
      let plan = Result.get_ok (Fault.parse plan_s) in
      let net = make_net ~fault_plan:plan ~max_retries:0 () in
      let _ = pair net in
      let report =
        try Network.run ~kind:Round.Conversation net
        with e ->
          Alcotest.failf "%s frame raised %s instead of reporting" what
            (Printexc.to_string e)
      in
      match report.Network.failure with
      | Some st ->
          Alcotest.(check string) "failure at the faulted link" "conv-batch"
            st.Rpc.stage
      | None -> Alcotest.failf "%s frame was not detected" what)
    [
      ("truncate(10)@1:1", "truncated");
      ("truncate(0)@1:2", "empty");
      ("pad(9)@1:1", "oversized");
      ("corrupt(5)@1:1", "garbage-tag");
      ("corrupt(0)@1:2", "bad-magic");
    ]

(* ------------------------------------------------------------------ *)
(* Supervisor: bounded retries, fresh onions, redrawn noise            *)
(* ------------------------------------------------------------------ *)

let test_retry_recovers_and_delivers () =
  let plan = Result.get_ok (Fault.parse "crash@2:1;drop@4") in
  let wire = Hashtbl.create 256 in
  let duplicates = ref 0 in
  let tap ~round:_ ~server:_ batch =
    Array.iter
      (fun onion ->
        let key = Bytes.to_string onion in
        if Hashtbl.mem wire key then incr duplicates
        else Hashtbl.add wire key ())
      batch
  in
  let net = make_net ~fault_plan:plan ~tap ~max_retries:2 () in
  let a, b = pair net in
  Client.send a "first";
  Client.send a "second";
  let reports = Network.run_rounds net 8 in
  let recovered =
    List.filter
      (fun r -> r.Network.failure = None && r.Network.attempts > 1)
      reports
  in
  Alcotest.(check int) "two rounds recovered by retrying" 2
    (List.length recovered);
  List.iter
    (fun r ->
      Alcotest.(check int) "one abort per recovered round" 1
        (List.length r.Network.aborts);
      Alcotest.(check int) "recovered on the second attempt" 2
        r.Network.attempts)
    recovered;
  Alcotest.(check int) "no round ultimately failed" 0
    (List.length (Network.failures_of reports));
  Alcotest.(check (list string)) "texts delivered in order despite faults"
    [ "first"; "second" ]
    (delivered_texts ~to_:b reports);
  (* The fresh-onion invariant: every onion observed on every link,
     across all attempts, was unique — a stored onion was never
     re-submitted. *)
  Alcotest.(check int) "no onion bytes crossed the wire twice" 0 !duplicates

let test_attempts_bounded () =
  (* Four consecutive crash rounds against max_retries = 2: attempts
     stop at 3, then the next round trips the remaining fault once and
     recovers. *)
  let plan = Result.get_ok (Fault.parse "crash@2x4") in
  let net = make_net ~fault_plan:plan ~max_retries:2 () in
  let _ = pair net in
  let report = Network.run ~kind:Round.Conversation net in
  Alcotest.(check bool) "round 1 clean" true (report.Network.failure = None);
  let report = Network.run ~kind:Round.Conversation net in
  Alcotest.(check bool) "rounds 2-4 exhausted retries" true
    (report.Network.failure <> None);
  Alcotest.(check int) "attempts = 1 + max_retries" 3 report.Network.attempts;
  let report = Network.run ~kind:Round.Conversation net in
  Alcotest.(check bool) "round 5 crashes once, retry recovers" true
    (report.Network.failure = None && report.Network.attempts = 2);
  Alcotest.(check int) "plan exhausted" 0
    (Chain.pending_faults (Network.chain net))

let test_deadline_miss_retries () =
  (* An injected hour-long stall trips the 10 s deadline; the stall is
     one-shot so the retry is fast and succeeds. *)
  let plan = Result.get_ok (Fault.parse "delay(3600000)@2:1") in
  let net = make_net ~fault_plan:plan ~round_deadline_ms:10_000. () in
  let a, b = pair net in
  Client.send a "past the stall";
  let reports = Network.run_rounds net 4 in
  let recovered =
    List.filter (fun r -> r.Network.attempts > 1) reports
  in
  (match recovered with
  | [ r ] -> (
      match r.Network.aborts with
      | [ st ] ->
          Alcotest.(check string) "aborted by the deadline" "deadline"
            st.Rpc.stage;
          Alcotest.(check bool) "deadline misses are retryable" true
            (Rpc.retryable st)
      | _ -> Alcotest.fail "expected exactly one abort")
  | _ -> Alcotest.fail "expected exactly one recovered round");
  Alcotest.(check (list string)) "delivery unaffected" [ "past the stall" ]
    (delivered_texts ~to_:b reports)

let test_noise_redrawn_per_attempt () =
  (* Sampled noise, crash at the last server's link in round 2: server
     0's outgoing batch (observed at server 1's link, upstream of the
     crash) exists for both the failed attempt (round 2) and the retry
     (round 3).  Aborting redraws noise, so the two batches differ in
     size under this seed — re-serving the first attempt's noise would
     keep them equal. *)
  let plan = Result.get_ok (Fault.parse "crash@2:2") in
  let sizes = Hashtbl.create 8 in
  let tap ~round ~server batch =
    if server = 1 then Hashtbl.replace sizes round (Array.length batch)
  in
  let net =
    make_net ~fault_plan:plan ~tap ~noise_mode:Noise.Sampled
      ~seed:"noise-redraw" ()
  in
  let _ = pair net in
  ignore (Network.run_rounds net 2);
  let attempt1 = Hashtbl.find_opt sizes 2 and retry = Hashtbl.find_opt sizes 3 in
  match (attempt1, retry) with
  | Some s1, Some s2 ->
      if s1 = s2 then
        Alcotest.failf
          "attempt and retry forwarded identical batch sizes (%d): noise was \
           not redrawn"
          s1
  | _ -> Alcotest.fail "tap missed an attempt"

(* ------------------------------------------------------------------ *)
(* Dialing-round recovery                                              *)
(* ------------------------------------------------------------------ *)

let test_dial_requeued_after_abort () =
  (* The dialing round carrying a's invitation crashes; the retry must
     carry a *fresh* invitation (the client requeues the callee, never
     the stored onion) and b must still hear the call. *)
  let plan = Result.get_ok (Fault.parse "crash@1:1") in
  let net = make_net ~fault_plan:plan ~max_retries:2 () in
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  Client.dial a ~callee_pk:(Client.public_key b);
  let report = Network.run ~kind:Round.Dialing net in
  Alcotest.(check bool) "dial round recovered" true
    (report.Network.failure = None);
  Alcotest.(check int) "on the second attempt" 2 report.Network.attempts;
  Alcotest.(check bool) "every ack confirmed on the retry" true
    (report.Network.confirmed_acks = 2);
  let b_called =
    List.exists
      (fun (c, evs) ->
        c == b
        && List.exists
             (function Client.Incoming_call _ -> true | _ -> false)
             evs)
      report.Network.events
  in
  Alcotest.(check bool) "b hears the retried invitation" true b_called

let test_dial_failure_does_not_lose_caller () =
  (* Even when a dialing round fails for good, the invitation is
     requeued and goes out in the next dialing round. *)
  let plan = Result.get_ok (Fault.parse "crash@1x2") in
  let net = make_net ~fault_plan:plan ~max_retries:1 () in
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  Client.dial a ~callee_pk:(Client.public_key b);
  let report = Network.run ~kind:Round.Dialing net in
  Alcotest.(check bool) "first dialing round failed" true
    (report.Network.failure <> None);
  let report = Network.run ~kind:Round.Dialing net in
  Alcotest.(check bool) "second dialing round clean" true
    (report.Network.failure = None);
  let b_called =
    List.exists
      (fun (c, evs) ->
        c == b
        && List.exists
             (function Client.Incoming_call _ -> true | _ -> false)
             evs)
      report.Network.events
  in
  Alcotest.(check bool) "invitation survived the failed round" true b_called

(* ------------------------------------------------------------------ *)
(* One relay: in process, faults act as on the daemons                 *)
(* ------------------------------------------------------------------ *)

(* Round [n] of a fresh pair under [plan], with its time on the wall
   clock (all attempts); rounds before it run clean. *)
let faulted_round ?flap_grace_ms ?telemetry plan_s ~n =
  let plan = Result.get_ok (Fault.parse plan_s) in
  let net = make_net ~fault_plan:plan ?flap_grace_ms ?telemetry () in
  let a, b = pair net in
  Client.send a "through the fault";
  let before = Network.run_rounds net (n - 1) in
  let t0 = Unix.gettimeofday () in
  let r = Network.run ~kind:Round.Conversation net in
  let wall_ms = 1000. *. (Unix.gettimeofday () -. t0) in
  let after = Network.run_rounds net 2 in
  Network.shutdown net;
  Alcotest.(check (list string))
    (plan_s ^ ": the text arrives") [ "through the fault" ]
    (delivered_texts ~to_:b (before @ (r :: after)));
  (r, wall_ms)

let test_flap_costs_nothing () =
  let tel = Vuvuzela_telemetry.Telemetry.create () in
  let r, _ = faulted_round ~telemetry:tel "flap(0)@1:1" ~n:1 in
  Alcotest.(check int) "one attempt" 1 r.Network.attempts;
  let parked =
    Vuvuzela_telemetry.Metrics.(
      counter_value
        (counter
           (Vuvuzela_telemetry.Telemetry.metrics tel)
           "vuvuzela_daemon_outbox_frames_total"))
  in
  Alcotest.(check bool)
    (Printf.sprintf "the reply waited in the outbox (%g frames)" parked)
    true (parked >= 1.)

(* The report's [elapsed_ms] counts every attempt, so it covers the
   failed attempt's grace too. *)
let test_partition_waits_out_the_grace () =
  let r, _ = faulted_round ~flap_grace_ms:500. "partition(50)@1:1" ~n:1 in
  Alcotest.(check int) "two attempts" 2 r.Network.attempts;
  (match r.Network.aborts with
  | [ st ] ->
      Alcotest.(check string) "the link above answers" "link to server 1 lost"
        st.Rpc.detail
  | _ -> Alcotest.fail "expected one abort");
  if r.Network.elapsed_ms < 500. then
    Alcotest.failf "the report says %.1f ms, under the 500 ms grace"
      r.Network.elapsed_ms

let test_virtual_waits_cost_no_wall_time () =
  List.iter
    (fun (plan_s, attempts) ->
      let r, wall_ms = faulted_round plan_s ~n:2 in
      Alcotest.(check int) (plan_s ^ ": attempts") attempts r.Network.attempts;
      if wall_ms >= 1_000. then
        Alcotest.failf "%s: round took %.0f ms of wall time" plan_s wall_ms)
    [ ("delay(3600000)@2:1", 1); ("crash@2:1", 2) ]

let test_drop_without_deadline_ends () =
  let r, _ = faulted_round "drop@2:1" ~n:2 in
  match r.Network.aborts with
  | [ st ] ->
      Alcotest.(check string) "answered as a missed deadline" "deadline"
        st.Rpc.stage;
      Alcotest.(check bool) "retryable" true (Rpc.retryable st);
      Alcotest.(check int) "the retry recovers" 2 r.Network.attempts
  | _ -> Alcotest.fail "expected one abort"

let suite =
  let tc = Alcotest.test_case in
  ( "faults",
    [
      tc "fault plan to_string/parse round-trip" `Quick test_plan_roundtrip;
      tc "fault plan grammar (counts, whitespace, errors)" `Quick
        test_plan_syntax;
      tc "injector fires each fault once" `Quick test_injector_one_shot;
      tc "rounds after shutdown return typed status" `Quick
        test_round_after_shutdown_is_typed;
      tc "events_of skips failed reports; failures_of" `Quick
        test_events_of_skips_failures;
      tc "adversarial frames surface as reports" `Quick
        test_adversarial_frames_are_reports;
      tc "retry recovers, delivers, never reuses onions" `Quick
        test_retry_recovers_and_delivers;
      tc "attempts bounded by max_retries" `Quick test_attempts_bounded;
      tc "deadline miss aborts and retries" `Quick test_deadline_miss_retries;
      tc "noise redrawn on each attempt" `Quick test_noise_redrawn_per_attempt;
      tc "aborted dialing round requeues the invitation" `Quick
        test_dial_requeued_after_abort;
      tc "failed dialing round does not lose the caller" `Quick
        test_dial_failure_does_not_lose_caller;
      tc "flap(0): one attempt, reply through the outbox" `Quick
        test_flap_costs_nothing;
      tc "partition(50): the 500 ms grace answers" `Quick
        test_partition_waits_out_the_grace;
      tc "hour stall and 2 s grace cost no wall time" `Quick
        test_virtual_waits_cost_no_wall_time;
      tc "drop with no deadline ends, retryable" `Quick
        test_drop_without_deadline_ends;
      tc "each kind's tag and effects" `Quick test_effects_per_kind;
    ] )
