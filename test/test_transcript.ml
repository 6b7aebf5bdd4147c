(* Wire-transcript pin: a seeded schedule must produce bit-identical
   bytes on the wire forever.

   The conversation digest was captured from the seed implementation
   (TweetNaCl 16×16-bit Fe25519) — the 51-bit field arithmetic that
   replaced it is a pure representation change, so every onion
   ciphertext, dead-drop ID, and reply byte must come out identical.
   The dialing-inclusive digest extends the same hash over a dialing
   round.  If either test ever fails, protocol bytes changed: a
   compatibility break, not a refactor.

   The fixture itself lives in [Transcript_pin] so the loopback-TCP
   deployment test ([test/net]) checks its multi-process chain against
   literally the same digest computation. *)

let with_in_process ?jobs ?pipeline_chunk ?deaddrop_shards f =
  let backend, shutdown =
    Transcript_pin.in_process ?jobs ?pipeline_chunk ?deaddrop_shards ()
  in
  Fun.protect ~finally:shutdown (fun () -> f backend)

let test_pinned_transcript () =
  with_in_process (fun backend ->
      Alcotest.(check string)
        "3-round wire transcript matches the seed implementation"
        Transcript_pin.pinned_conv_digest
        (Transcript_pin.conv_digest backend))

let test_pinned_full_transcript () =
  with_in_process (fun backend ->
      Alcotest.(check string)
        "conversation + dialing transcript matches its pin"
        Transcript_pin.pinned_full_digest
        (Transcript_pin.full_digest backend))

(* The transcript is a function of the seed alone: two fresh deployments
   agree byte for byte (guards against hidden global state). *)
let test_transcript_deterministic () =
  let d1 = with_in_process Transcript_pin.full_digest in
  let d2 = with_in_process Transcript_pin.full_digest in
  Alcotest.(check string) "transcript reproducible" d1 d2

(* The engine knobs — worker domains, relay part size — are
   pure scheduling: any combination must reproduce the pinned bytes. *)
let test_transcript_engine_invariant () =
  List.iter
    (fun (jobs, pipeline_chunk) ->
      let digest =
        with_in_process ~jobs ?pipeline_chunk Transcript_pin.full_digest
      in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d chunk=%s" jobs
           (match pipeline_chunk with
           | None -> "-"
           | Some c -> string_of_int c))
        Transcript_pin.pinned_full_digest digest)
    [
      (2, None);
      (4, None);
      (1, Some 1);
      (1, Some 3);
      (2, Some 2);
      (4, Some 16);
    ]

(* The scale plane's sharded dead-drop store is pure engine too: any
   shard count, at any job count, must reproduce the pinned bytes.
   (The TCP counterpart of this matrix runs in [test/net].) *)
let test_transcript_scale_plane_invariant () =
  List.iter
    (fun (jobs, deaddrop_shards) ->
      let digest =
        with_in_process ~jobs ~deaddrop_shards Transcript_pin.full_digest
      in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d shards=%d" jobs deaddrop_shards)
        Transcript_pin.pinned_full_digest digest)
    [ (1, 4); (4, 4); (1, 16); (4, 16) ]

(* Observability is pure control plane: the same schedule with a live
   telemetry sink — spans, metrics and the budget ledger all recording
   — must reproduce the pinned bytes at the job counts and pipeline
   settings the observability plane promises not to perturb. *)
let test_transcript_observability_invariant () =
  List.iter
    (fun (jobs, pipeline_chunk) ->
      let telemetry = Vuvuzela_telemetry.Telemetry.create () in
      let backend, shutdown =
        Transcript_pin.in_process ~telemetry ~jobs ?pipeline_chunk ()
      in
      let digest =
        Fun.protect ~finally:shutdown (fun () ->
            Transcript_pin.full_digest backend)
      in
      Alcotest.(check string)
        (Printf.sprintf "telemetry on, jobs=%d chunk=%s" jobs
           (match pipeline_chunk with
           | None -> "-"
           | Some c -> string_of_int c))
        Transcript_pin.pinned_full_digest digest;
      (* The sink really was live, not a nil path. *)
      Alcotest.(check bool)
        (Printf.sprintf "spans recorded at jobs=%d" jobs)
        true
        (Vuvuzela_telemetry.Trace.span_count
           (Vuvuzela_telemetry.Telemetry.trace telemetry)
        > 0))
    [ (1, None); (4, None); (1, Some 3); (4, Some 3) ]

(* The pins above cover what crosses a link: requests and acks.  The
   invitation drops clients download never do, so this pins them: one
   seeded dialing round per invitation format, three callers among six
   clients, every drop hashed as [Chain.fetch_invitations] serves it.
   The mixing servers' noise reaches the store through the mix, the
   last server files its own directly, so both builders are covered. *)
let invitation_store_digest kind =
  let open Vuvuzela in
  let open Vuvuzela_crypto in
  let chain =
    Chain.of_config
      Config.(
        default |> with_seed "invitation-store-pin" |> with_n_servers 3
        |> with_dial_noise (Vuvuzela_dp.Laplace.params ~mu:4. ~b:1.)
        |> with_dial_kind kind)
  in
  Fun.protect ~finally:(fun () -> Chain.shutdown chain) @@ fun () ->
  let m = 5 and dial_round = 1 in
  let clients =
    List.init 6 (fun i ->
        let cseed = Printf.sprintf "store-pin-c%d" i in
        let signing_sk, _ = Ed25519.keypair ~rng:(Drbg.of_string cseed) () in
        Client.create ~seed:cseed ~dial_kind:kind
          ~certified:{ Client.signing_sk; name = cseed; validity = 4 }
          ~identity:(Types.identity_of_seed (Bytes.of_string cseed))
          ~server_pks:(Chain.public_keys chain) ())
  in
  List.iteri
    (fun i c ->
      if i < 3 then
        Client.dial c ~callee_pk:(Client.public_key (List.nth clients (i + 3))))
    clients;
  let requests =
    Array.of_list
      (List.map (fun c -> Client.dialing_request c ~dial_round ~m) clients)
  in
  ignore (Chain.dialing_round_exn chain ~round:dial_round ~m requests);
  let h = Sha256.init () and filed = ref 0 in
  for index = 0 to m - 1 do
    let drop = Chain.fetch_invitations chain ~index in
    filed := !filed + List.length drop;
    Sha256.feed h
      (Bytes.of_string
         (Printf.sprintf "drop %d: %d\n" index (List.length drop)));
    List.iter (Sha256.feed h) drop
  done;
  (!filed, Bytes_util.to_hex (Sha256.get h))

let pinned_plain_store =
  (78, "5e4cabd6ed09107c8fe259823c634d0245c4511345ff7be37fafcf2ac1d37a59")

let pinned_certified_store =
  (78, "9f7f553bc1b9062eae381786a7b3eb02c21d6ed5c68d7d60f59d5c98e8047c1c")

let test_pinned_invitation_store () =
  List.iter
    (fun (what, kind, (filed, digest)) ->
      let got_filed, got = invitation_store_digest kind in
      Alcotest.(check int) (what ^ " invitations filed") filed got_filed;
      Alcotest.(check string) (what ^ " store digest") digest got)
    [
      ("plain", Vuvuzela.Dialing.Plain, pinned_plain_store);
      ("certified", Vuvuzela.Dialing.Certified, pinned_certified_store);
    ]

let suite =
  ( "transcript",
    [
      Alcotest.test_case "pinned 3-round wire transcript" `Quick
        test_pinned_transcript;
      Alcotest.test_case "pinned dialing-inclusive transcript" `Quick
        test_pinned_full_transcript;
      Alcotest.test_case "transcript deterministic" `Quick
        test_transcript_deterministic;
      Alcotest.test_case "pinned at any jobs/pipeline combination" `Quick
        test_transcript_engine_invariant;
      Alcotest.test_case "pinned across the scale plane" `Quick
        test_transcript_scale_plane_invariant;
      Alcotest.test_case "pinned with observability on" `Quick
        test_transcript_observability_invariant;
      Alcotest.test_case "pinned invitation store" `Quick
        test_pinned_invitation_store;
    ] )
