(* Churn chaos suite: WAN-style degradation under a seeded schedule.

   Where [chaos.ml] drives crashes and corruption, this suite drives the
   churn fault family — [Flap], [Slow_link], [Partition] from
   [random_churn_plan] — together with the admission window
   (stragglers excluded per round) and client flaps (blocked clients),
   all drawn from fixed seeds.  The invariants are graceful degradation,
   not perfection:

   - every queued message is still delivered exactly once, in order,
     once the churn clears;
   - no onion ciphertext is ever observed twice on any link;
   - attempts per round stay within 1 + max_retries;
   - the admission decisions — who was admitted, who was told to come
     back next round — and the full report transcript replay
     bit-identically under each seed, at any job count. *)

open Vuvuzela_dp
open Vuvuzela
module Fault = Vuvuzela_faults.Fault
module Drbg = Vuvuzela_crypto.Drbg
module Bytes_util = Vuvuzela_crypto.Bytes_util

let max_retries = 3
let n_pairs = 5 (* 10-client schedule *)
let msgs_per_sender = 2
let churn_rounds = 12
let drain_rounds = 14

(* Render a report without its wall-clock field; everything else —
   including the admission split — must replay bit for bit. *)
let normalize_report (r : Network.round_report) =
  Format.asprintf
    "%s%d att=%d batch=%d adm=%d late=%d wire=%d acks=%d aborts=[%s] %s {%s}"
    (if r.dialing then "dial" else "conv")
    r.round r.attempts r.batch_size r.admitted r.late r.wire_bytes
    r.confirmed_acks
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

(* A churn schedule: [faults] faults drawn only from the healing kinds —
   [Flap] (0–30 ms), [Slow_link] (10–50 ms), [Partition] (50–150 ms) —
   so every failure is survivable inside a sane round deadline. *)
let random_churn_plan ~rng ~rounds ~n_servers ~faults =
  List.init faults (fun _ ->
      let round = 1 + Drbg.uniform ~rng rounds in
      let server = Drbg.uniform ~rng n_servers in
      let kind =
        match Drbg.uniform ~rng 3 with
        | 0 -> Fault.Flap (Drbg.uniform ~rng 30)
        | 1 -> Slow_link (10 + Drbg.uniform ~rng 40)
        | _ -> Partition (50 + Drbg.uniform ~rng 100)
      in
      { Fault.round; server; kind })

(* One full churn run.  The churn window runs server faults + admission
   + client flaps; the drain phase is quiet (links healed, window off)
   so retransmissions can finish. *)
let scenario ~seed ~jobs () =
  let plan =
    random_churn_plan
      ~rng:(Drbg.of_string ("churn-plan-" ^ seed))
      ~rounds:churn_rounds ~n_servers:3 ~faults:6
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
        |> with_seed ("churn-net-" ^ seed)
        |> with_noise (Laplace.params ~mu:3. ~b:1.)
        |> with_dial_noise (Laplace.params ~mu:2. ~b:1.)
        |> with_noise_mode Noise.Sampled |> with_jobs jobs
        |> with_fault_plan plan |> with_tap tap
        |> with_round_deadline_ms 60_000.
        |> with_max_retries max_retries
        |> with_admission_ms 10.
        |> with_client_latency ~base_ms:5. ~jitter_ms:8.)
  in
  let clients =
    Array.init (2 * n_pairs) (fun i ->
        Network.connect ~seed:(Printf.sprintf "churn-c%d" i) net)
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
  (* Client flaps: each churn round, each client independently drops
     offline with probability 1/5, drawn from its own seeded stream so
     the outage pattern replays. *)
  let flap_rng = Drbg.of_string ("churn-flap-" ^ seed) in
  let reports = ref [] in
  for _ = 1 to churn_rounds do
    let offline = Hashtbl.create 8 in
    Array.iter
      (fun c ->
        if Drbg.uniform ~rng:flap_rng 5 = 0 then
          Hashtbl.replace offline (Bytes.to_string (Client.public_key c)) ())
      clients;
    let blocked c =
      Hashtbl.mem offline (Bytes.to_string (Client.public_key c))
    in
    reports := Network.run ~blocked ~kind:Round.Conversation net :: !reports
  done;
  (* The WAN heals: no more faults (the plan is spent), window off,
     everyone back online. *)
  Network.set_admission_ms net None;
  let reports =
    List.rev !reports @ Network.run_rounds net drain_rounds
  in
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
  List.concat
    (List.init n_pairs (fun p ->
         [
           List.init msgs_per_sender (fun k -> Printf.sprintf "p%d/b%d" p (k + 1));
           List.init msgs_per_sender (fun k -> Printf.sprintf "p%d/a%d" p (k + 1));
         ]))

let seeds = [ "c1"; "c2"; "c3" ]

let test_churn_invariants () =
  let some_abort = ref false in
  List.iter
    (fun seed ->
      let _, reports, duplicates, received = scenario ~seed ~jobs:1 () in
      (* The window actually excluded someone: degradation, not a no-op. *)
      let total_late =
        List.fold_left (fun n r -> n + r.Network.late) 0 reports
      in
      if total_late = 0 then
        Alcotest.failf "seed %s: no straggler was ever excluded" seed;
      if List.exists (fun r -> not (r.Network.aborts = [])) reports then
        some_abort := true;
      (* Bounded retries, even mid-churn. *)
      List.iter
        (fun r ->
          if r.Network.attempts > 1 + max_retries then
            Alcotest.failf "seed %s round %d took %d attempts (max %d)" seed
              r.Network.round r.Network.attempts (1 + max_retries))
        reports;
      (* No round ultimately failed: churn degrades, never kills. *)
      (match Network.failures_of reports with
      | [] -> ()
      | st :: _ ->
          Alcotest.failf "seed %s: round failed outright: %s" seed
            (Format.asprintf "%a" Rpc.pp_status st));
      (* Fresh onions on every attempt and every re-admission. *)
      Alcotest.(check int)
        (Printf.sprintf "seed %s: no onion observed twice" seed)
        0 duplicates;
      (* Exactly-once, in-order delivery once the churn cleared. *)
      List.iteri
        (fun i (got, want) ->
          if got <> want then
            Alcotest.failf "seed %s client %d received [%s], wanted [%s]" seed
              i (String.concat "," got) (String.concat "," want))
        (List.combine received expect_received))
    seeds;
  (* Across the seed set, the partition faults must have bitten at least
     once (the per-seed plans are fixed draws, so this is stable). *)
  Alcotest.(check bool) "some attempt was aborted by churn" true !some_abort

let test_churn_deterministic () =
  (* Same seed → identical transcripts (admission decisions included),
     for every seed in the set. *)
  List.iter
    (fun seed ->
      let norm, _, _, recv = scenario ~seed ~jobs:1 () in
      let norm', _, _, recv' = scenario ~seed ~jobs:1 () in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %s transcript replays" seed)
        norm norm';
      Alcotest.(check bool)
        (Printf.sprintf "seed %s deliveries replay" seed)
        true (recv = recv'))
    seeds;
  (* Different seeds → different churn (the schedule isn't degenerate). *)
  let n1, _, _, _ = scenario ~seed:"c1" ~jobs:1 () in
  let n2, _, _, _ = scenario ~seed:"c2" ~jobs:1 () in
  Alcotest.(check bool) "seeds actually differ" false (n1 = n2)

let test_churn_deterministic_across_jobs () =
  let norm, _, _, recv = scenario ~seed:"c1" ~jobs:1 () in
  let norm4, _, _, recv4 = scenario ~seed:"c1" ~jobs:4 () in
  Alcotest.(check (list string)) "jobs=4 transcript matches jobs=1" norm norm4;
  Alcotest.(check bool) "jobs=4 deliveries match jobs=1" true (recv = recv4)

let () =
  Alcotest.run "vuvuzela-churn"
    [
      ( "churn",
        [
          Alcotest.test_case "churn schedule: degradation invariants" `Quick
            test_churn_invariants;
          Alcotest.test_case "bit-deterministic under 3 seeds" `Quick
            test_churn_deterministic;
          Alcotest.test_case "bit-deterministic at jobs 4" `Quick
            test_churn_deterministic_across_jobs;
        ] );
    ]
