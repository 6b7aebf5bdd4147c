(* Chaos suite: randomized multi-fault schedules under fixed seeds.

   A seeded [random_plan] drives crashes, dropped links, corrupted
   frames, hour-long stalls, and tampered onions into a live deployment
   while pairs of clients keep talking.  The invariants are the
   supervisor's contract:

   - attempts per round stay within 1 + max_retries;
   - no onion ciphertext is ever observed twice on any link (every retry
     rebuilds requests with fresh ephemeral keys);
   - noise is redrawn for every attempt;
   - every queued message is delivered exactly once, in order, after the
     faults clear;
   - the whole run — reports included — is bit-deterministic under the
     seed, at any job count.

   Runtime is bounded: fixed seeds, fixed round counts, a small
   population. *)

open Vuvuzela_dp
open Vuvuzela
module Fault = Vuvuzela_faults.Fault
module Drbg = Vuvuzela_crypto.Drbg
module Bytes_util = Vuvuzela_crypto.Bytes_util

let max_retries = 3
let n_pairs = 3
let msgs_per_sender = 3

(* Render a report without its wall-clock field, which is the one thing
   legitimately different between reruns. *)
let normalize_report (r : Network.round_report) =
  Format.asprintf "%s%d att=%d batch=%d wire=%d acks=%d aborts=[%s] %s {%s}"
    (if r.dialing then "dial" else "conv")
    r.round r.attempts r.batch_size r.wire_bytes r.confirmed_acks
    (String.concat ";"
       (List.map (Format.asprintf "%a" Rpc.pp_status) r.aborts))
    (match r.failure with
    | None -> "ok"
    | Some st -> Format.asprintf "FAILED(%a)" Rpc.pp_status st)
    (String.concat "; "
       (List.map
          (fun (c, evs) ->
            String.sub (Bytes_util.to_hex (Client.public_key c)) 0 8
            ^ ":"
            ^ String.concat ","
                (List.map (Format.asprintf "%a" Harness.pp_event) evs))
          r.events))

(* A chaos schedule: [faults] faults drawn from the seeded [rng], with
   rounds in [1, rounds] and servers in [0, n_servers).  Each drawn
   fault misbehaves decisively: corruption hits the 6-byte
   magic/version/tag header (decode always fails, never a silent payload
   flip), delays are an hour (past any deadline a test would set). *)
let random_plan ~rng ~rounds ~n_servers ~faults =
  List.init faults (fun _ ->
      let round = 1 + Drbg.uniform ~rng rounds in
      let server = Drbg.uniform ~rng n_servers in
      let kind =
        match Drbg.uniform ~rng 5 with
        | 0 -> Fault.Crash
        | 1 -> Drop_link
        | 2 -> Corrupt_frame (Drbg.uniform ~rng 6)
        | 3 -> Delay_ms 3_600_000
        | _ -> Tamper_slot (Drbg.uniform ~rng 8)
      in
      { Fault.round; server; kind })

(* One full chaos run: returns the normalized reports plus everything
   the invariants need. *)
let scenario ?pipeline_chunk ?plan ~seed ~jobs () =
  let plan =
    match plan with
    | Some plan -> plan
    | None ->
        random_plan
          ~rng:(Drbg.of_string ("chaos-plan-" ^ seed))
          ~rounds:10 ~n_servers:3 ~faults:6
  in
  let wire = Hashtbl.create 4096 in
  let duplicates = ref 0 in
  let tap ~round:_ ~server:_ batch =
    Array.iter
      (fun onion ->
        let key = Bytes.to_string onion in
        if Hashtbl.mem wire key then incr duplicates
        else Hashtbl.add wire key ())
      batch
  in
  let net =
    Network.of_config
      Network.Config.(
        default
        |> with_seed ("chaos-net-" ^ seed)
        |> with_noise (Laplace.params ~mu:3. ~b:1.)
        |> with_dial_noise (Laplace.params ~mu:2. ~b:1.)
        |> with_noise_mode Noise.Sampled |> with_jobs jobs
        |> with_fault_plan plan |> with_tap tap
        |> with_round_deadline_ms 60_000.
        |> with_max_retries max_retries
        |>
        match pipeline_chunk with
        | None -> Fun.id
        | Some chunk -> with_pipeline ~chunk true)
  in
  let clients =
    Array.init (2 * n_pairs) (fun i ->
        Network.connect ~seed:(Printf.sprintf "chaos-c%d" i) net)
  in
  for p = 0 to n_pairs - 1 do
    let a = clients.(2 * p) and b = clients.((2 * p) + 1) in
    Client.start_conversation a ~peer_pk:(Client.public_key b);
    Client.start_conversation b ~peer_pk:(Client.public_key a);
    for k = 1 to msgs_per_sender do
      Client.send a (Printf.sprintf "p%d/a%d" p k);
      Client.send b (Printf.sprintf "p%d/b%d" p k)
    done
  done;
  (* The faulted window, then a quiet drain so retransmissions finish. *)
  let reports = Harness.run_schedule ~dial_every:4 net ~rounds:12 in
  let reports = reports @ Network.run_rounds net 14 in
  Network.shutdown net;
  let delivered = Hashtbl.create 16 in
  List.iter
    (fun (c, evs) ->
      List.iter
        (function
          | Client.Delivered { text; _ } ->
              let k = Bytes.to_string (Client.public_key c) in
              Hashtbl.replace delivered k
                (text :: Option.value ~default:[] (Hashtbl.find_opt delivered k))
          | _ -> ())
        evs)
    (Network.events_of reports);
  let received_by c =
    List.rev
      (Option.value ~default:[]
         (Hashtbl.find_opt delivered (Bytes.to_string (Client.public_key c))))
  in
  ( List.map normalize_report reports,
    reports,
    !duplicates,
    Array.to_list (Array.map received_by clients) )

let expect_received =
  (* Pair p: client 2p receives b-texts, client 2p+1 receives a-texts. *)
  List.concat
    (List.init n_pairs (fun p ->
         [
           List.init msgs_per_sender (fun k -> Printf.sprintf "p%d/b%d" p (k + 1));
           List.init msgs_per_sender (fun k -> Printf.sprintf "p%d/a%d" p (k + 1));
         ]))

let test_chaos_invariants () =
  let _, reports, duplicates, received = scenario ~seed:"s1" ~jobs:1 () in
  (* The plan actually bit: at least one attempt was aborted. *)
  let total_aborts =
    List.fold_left (fun n r -> n + List.length r.Network.aborts) 0 reports
  in
  if total_aborts = 0 then
    Alcotest.fail "chaos plan never fired — the schedule tests nothing";
  (* Bounded retries. *)
  List.iter
    (fun r ->
      if r.Network.attempts > 1 + max_retries then
        Alcotest.failf "round %d took %d attempts (max %d)" r.Network.round
          r.Network.attempts (1 + max_retries))
    reports;
  (* Fresh onions: nothing crossed any link twice, across all attempts
     of all rounds. *)
  Alcotest.(check int) "no onion ciphertext observed twice" 0 duplicates;
  (* Exactly-once, in-order delivery once the faults cleared. *)
  List.iteri
    (fun i (got, want) ->
      if got <> want then
        Alcotest.failf "client %d received [%s], wanted [%s]" i
          (String.concat "," got) (String.concat "," want))
    (List.combine received expect_received)

let test_chaos_deterministic_across_jobs () =
  let norm1, _, _, recv1 = scenario ~seed:"s1" ~jobs:1 () in
  let norm1', _, _, _ = scenario ~seed:"s1" ~jobs:1 () in
  Alcotest.(check (list string)) "rerun is bit-identical" norm1 norm1';
  List.iter
    (fun jobs ->
      let normj, _, _, recvj = scenario ~seed:"s1" ~jobs () in
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d reports match jobs=1" jobs)
        norm1 normj;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d deliveries match jobs=1" jobs)
        true (recv1 = recvj))
    [ 2; 4 ]

(* Tampers on both sides of a chunk-4 part boundary (slots 3 and 4) and
   past the end of the entry batch, on every server, plus frame faults
   that land in the part header. *)
let boundary_plan =
  Result.get_ok
    (Fault.parse
       "tamper(3)@1:0;tamper(4)@1:1;tamper(4)@2:0;tamper(3)@2:2;\
        tamper(9)@3:0;corrupt(4)@4:1;truncate(20)@5:2;pad(3)@6:0;\
        tamper(0)@7:1;tamper(5)@7:1")

let test_chaos_chunked_parts_match_whole_batch () =
  (* Every fault fires once against the whole logical batch — a tamper
     at its absolute slot in whichever part carries it, a frame fault on
     the first part — so cutting the batch into parts of k onions cannot
     change the transcript: reports, aborts, retries and deliveries are
     byte-identical to one whole-batch part per link. *)
  List.iter
    (fun (plan_name, plan, cases) ->
      let norm, _, _, recv = scenario ?plan ~seed:"s1" ~jobs:1 () in
      List.iter
        (fun (jobs, chunk) ->
          let normp, _, dupp, recvp =
            scenario ~pipeline_chunk:chunk ?plan ~seed:"s1" ~jobs ()
          in
          let label =
            Printf.sprintf "%s plan, jobs=%d chunk=%d" plan_name jobs chunk
          in
          Alcotest.(check (list string))
            (label ^ " reports match whole-batch parts") norm normp;
          Alcotest.(check int) (label ^ " no duplicate onions") 0 dupp;
          Alcotest.(check bool)
            (label ^ " deliveries match whole-batch parts") true (recv = recvp))
        cases)
    [
      ("random", None, [ (1, 1); (1, 4); (2, 3); (4, 16) ]);
      ("boundary", Some boundary_plan, [ (1, 1); (1, 4) ]);
    ]

let test_noise_redrawn_across_attempts () =
  (* Deterministic two-attempt round: a crash at the last server's link
     leaves server 0's forwarded batch observable (at server 1's link)
     for both the failed attempt and its retry.  Redrawn noise makes the
     two batch sizes differ under this seed. *)
  let plan = Result.get_ok (Fault.parse "crash@2:2") in
  let sizes = Hashtbl.create 8 in
  let tap ~round ~server batch =
    if server = 1 then Hashtbl.replace sizes round (Array.length batch)
  in
  let net =
    Network.of_config
      Network.Config.(
        default |> with_seed "chaos-noise-redraw"
        |> with_noise (Laplace.params ~mu:3. ~b:1.)
        |> with_dial_noise (Laplace.params ~mu:2. ~b:1.)
        |> with_noise_mode Noise.Sampled |> with_fault_plan plan
        |> with_tap tap |> with_max_retries 2)
  in
  let _ = Network.connect ~seed:"nr-a" net in
  let _ = Network.connect ~seed:"nr-b" net in
  ignore (Network.run_rounds net 2);
  Network.shutdown net;
  match (Hashtbl.find_opt sizes 2, Hashtbl.find_opt sizes 3) with
  | Some s1, Some s2 ->
      if s1 = s2 then
        Alcotest.failf "attempt and retry forwarded %d onions each: noise \
                        was not redrawn" s1
  | _ -> Alcotest.fail "tap missed an attempt"

let () =
  Alcotest.run "vuvuzela-chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "randomized faults: supervisor invariants" `Quick
            test_chaos_invariants;
          Alcotest.test_case "bit-deterministic at jobs 1/2/4" `Quick
            test_chaos_deterministic_across_jobs;
          Alcotest.test_case "chunk k = whole-batch part under faults"
            `Quick test_chaos_chunked_parts_match_whole_batch;
          Alcotest.test_case "noise redrawn across attempts" `Quick
            test_noise_redrawn_across_attempts;
        ] );
    ]
