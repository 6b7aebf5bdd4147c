(* The multicore round engine: the domain pool's combinators, and the
   determinism contract — a seeded deployment must produce bit-identical
   observables (histograms, events, reports) at any job count, because
   every RNG draw stays on the coordinating domain. *)

open Vuvuzela_dp
open Vuvuzela
module Pool = Vuvuzela_parallel.Pool

(* ------------------------------------------------------------------ *)
(* Pool combinators                                                    *)
(* ------------------------------------------------------------------ *)

let test_pool_matches_sequential () =
  let pool = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "jobs" 4 (Pool.jobs pool);
  List.iter
    (fun n ->
      let a = Array.init n (fun i -> i) in
      let f i x = (i * 31) + x in
      Alcotest.(check (array int))
        (Printf.sprintf "mapi %d" n)
        (Array.mapi f a) (Pool.mapi_array pool f a))
    [ 0; 1; 2; 3; 7; 8; 64; 1000 ]

let test_pool_run_and_exceptions () =
  let pool = Pool.create ~jobs:3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let r = Pool.run pool [| (fun () -> 10); (fun () -> 20); (fun () -> 30) |] in
  Alcotest.(check (array int)) "run results in order" [| 10; 20; 30 |] r;
  (* A worker's exception reaches the caller; the pool survives it. *)
  Alcotest.check_raises "exception propagates" Exit (fun () ->
      ignore
        (Pool.mapi_array pool
           (fun _ x -> if x = 777 then raise Exit else x)
           (Array.init 1000 Fun.id)));
  Alcotest.(check (array int)) "pool still usable" [| 0; 2; 4 |]
    (Pool.mapi_array pool (fun _ x -> 2 * x) [| 0; 1; 2 |])

let test_pool_jobs_one_is_sequential () =
  let pool = Pool.create ~jobs:1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* With one job everything runs on the calling domain — side effects
     land in submission order. *)
  let seen = ref [] in
  ignore
    (Pool.mapi_array pool
       (fun i _ ->
         seen := i :: !seen;
         i)
       (Array.make 16 ()));
  Alcotest.(check (list int)) "in order" (List.init 16 (fun i -> 15 - i)) !seen

(* A domain the host stalls cannot hold a batch.  The first item a
   worker domain takes sleeps 300 ms (a vCPU the hypervisor took away);
   every item is ~0.5 ms of work.  The coordinator keeps taking chunks
   from the queue meanwhile, so it runs at least three quarters of the
   items, where a fixed half per domain would leave it idle. *)
let test_pool_stalled_domain () =
  let pool = Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let n = 64 in
  let coordinator = Domain.self () in
  let ran_on = Array.make n coordinator in
  let stalled = Atomic.make false in
  let work s =
    let until = Unix.gettimeofday () +. s in
    while Unix.gettimeofday () < until do
      ()
    done
  in
  let g i x = (i * 31) + x in
  let f i x =
    let self = Domain.self () in
    ran_on.(i) <- self;
    if self <> coordinator && Atomic.compare_and_set stalled false true then
      Unix.sleepf 0.3;
    work 0.0005;
    g i x
  in
  let a = Array.init n (fun i -> 7 * i) in
  Alcotest.(check (array int)) "result" (Array.mapi g a)
    (Pool.mapi_array pool f a);
  let mine =
    Array.fold_left (fun k d -> if d = coordinator then k + 1 else k) 0 ran_on
  in
  Alcotest.(check bool)
    (Printf.sprintf "coordinator ran %d of %d items (>= 3/4)" mine n)
    true
    (4 * mine >= 3 * n)

(* ------------------------------------------------------------------ *)
(* Deployment determinism across job counts                            *)
(* ------------------------------------------------------------------ *)

(* Run a small seeded deployment (dialing + 6 conversation rounds) and
   summarize everything observable: the last server's histogram, every
   round report's accounting, and every client event. *)
let run_deployment ?pipeline_chunk ~jobs () =
  let net =
    Network.of_config
      Network.Config.(
        default |> with_seed "par-det"
        |> with_noise (Laplace.params ~mu:3. ~b:1.)
        |> with_dial_noise (Laplace.params ~mu:2. ~b:1.)
        |> with_noise_mode Noise.Sampled |> with_jobs jobs
        |>
        match pipeline_chunk with
        | None -> Fun.id
        | Some chunk -> with_pipeline ~chunk true)
  in
  Alcotest.(check int) "configured jobs" jobs (Network.jobs net);
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  let _idle =
    List.init 3 (fun i -> Network.connect ~seed:(Printf.sprintf "i%d" i) net)
  in
  Client.dial a ~callee_pk:(Client.public_key b);
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  let dial_report = Network.run ~kind:Round.Dialing net in
  List.iter
    (fun (c, evs) ->
      List.iter
        (function
          | Client.Incoming_call { caller; _ } ->
              Client.start_conversation c ~peer_pk:caller
          | _ -> ())
        evs)
    dial_report.Network.events;
  Client.send a "hello determinism";
  Client.send b "same bytes at any job count";
  let reports = Network.run_rounds net 6 in
  let histogram =
    match Chain.observed_histogram (Network.chain net) with
    | Some h -> (h.Deaddrop.m1, h.Deaddrop.m2)
    | None -> (-1, -1)
  in
  let transcript =
    List.map
      (fun r ->
        Printf.sprintf "round=%d dialing=%b batch=%d wire=%d acks=%d [%s]"
          r.Network.round r.Network.dialing r.Network.batch_size
          r.Network.wire_bytes r.Network.confirmed_acks
          (String.concat "; "
             (List.concat_map
                (fun (c, evs) ->
                  List.map
                    (fun e ->
                      Vuvuzela_crypto.Bytes_util.to_hex (Client.public_key c)
                      ^ ":"
                      ^ Format.asprintf "%a" Harness.pp_event e)
                    evs)
                r.Network.events)))
      (dial_report :: reports)
  in
  Network.shutdown net;
  (histogram, transcript)

let test_deployment_determinism () =
  let ref_h, ref_t = run_deployment ~jobs:1 () in
  (* The conversation actually happened... *)
  Alcotest.(check bool) "events occurred" true
    (List.exists (fun line -> String.length line > 60) ref_t);
  (* ...and replays bit-identically under 2 and 4 domains, with one
     whole-batch part per link or parts of a few onions. *)
  List.iter
    (fun (jobs, pipeline_chunk) ->
      let h, t = run_deployment ?pipeline_chunk ~jobs () in
      let label =
        Printf.sprintf "jobs=%d%s" jobs
          (match pipeline_chunk with
          | None -> ""
          | Some c -> Printf.sprintf " chunk=%d" c)
      in
      Alcotest.(check (pair int int)) ("histogram " ^ label) ref_h h;
      Alcotest.(check (list string)) ("transcript " ^ label) ref_t t)
    [ (2, None); (4, None); (1, Some 1); (2, Some 3); (4, Some 4) ]

let suite =
  let tc = Alcotest.test_case in
  ( "parallel",
    [
      tc "pool matches sequential" `Quick test_pool_matches_sequential;
      tc "pool run and exceptions" `Quick test_pool_run_and_exceptions;
      tc "pool jobs=1 sequential" `Quick test_pool_jobs_one_is_sequential;
      tc "pool stalled domain cannot hold a batch" `Quick
        test_pool_stalled_domain;
      tc "deployment bit-identical across jobs" `Quick
        test_deployment_determinism;
    ] )
