(* Scale-plane units: the streaming entry collector's memory bound, the
   O(1) dead-drop/invitation counters, and the vectorized load generator
   driven end to end through a real in-process chain.  The bit-parity
   claims (sharded ≡ monolithic, chunked ≡ whole-batch parts) live in
   the transcript pins and the property suite; here we check the
   resource claims those planes exist for. *)

open Vuvuzela_dp
open Vuvuzela
module Loadgen = Vuvuzela_loadgen.Loadgen

(* ------------------------------------------------------------------ *)
(* Streaming entry collector: peak buffering bounded by the chunk      *)
(* ------------------------------------------------------------------ *)

let test_streaming_peak_bound () =
  let n = 100 and chunk = 8 in
  let received = ref [] in
  let entry =
    Entry.create_streaming ~round:1 ~chunk
      ~sink:(fun parts -> received := parts :: !received)
      ()
  in
  for i = 0 to n - 1 do
    match Entry.submit entry i (Bytes.make 4 (Char.chr (i land 0xff))) with
    | Entry.Accepted -> ()
    | Entry.Late _ -> Alcotest.fail "open stream rejected a submit"
  done;
  let ids = Entry.close_stream entry in
  Alcotest.(check int) "all clients got slots" n (Array.length ids);
  Alcotest.(check bool)
    (Printf.sprintf "peak buffered (%d) <= chunk (%d)"
       (Entry.peak_buffered entry) chunk)
    true
    (Entry.peak_buffered entry <= chunk);
  (* The sink saw every request, in slot order, in chunk-bounded parts. *)
  let parts = List.rev !received in
  List.iter
    (fun p -> Alcotest.(check bool) "part <= chunk" true (Array.length p <= chunk))
    parts;
  let flat = Array.concat parts in
  Alcotest.(check int) "sink saw the whole batch" n (Array.length flat);
  Array.iteri
    (fun i b ->
      Alcotest.(check char) "slot order preserved"
        (Char.chr (i land 0xff)) (Bytes.get b 0))
    flat

(* The bound is population-independent: 10x the clients, same peak. *)
let test_streaming_peak_population_independent () =
  let chunk = 16 in
  let peak_at n =
    let entry = Entry.create_streaming ~chunk ~sink:(fun _ -> ()) () in
    for i = 0 to n - 1 do
      ignore (Entry.submit entry i (Bytes.create 1))
    done;
    ignore (Entry.close_stream entry);
    Entry.peak_buffered entry
  in
  let p1 = peak_at 200 and p2 = peak_at 2000 in
  Alcotest.(check int) "peak unchanged across populations" p1 p2;
  Alcotest.(check bool) "peak <= chunk" true (p1 <= chunk)

(* ------------------------------------------------------------------ *)
(* O(1) counters agree with the data they summarize                    *)
(* ------------------------------------------------------------------ *)

let drop_id c = Bytes.make Types.drop_id_len c
let sealed c = Bytes.make Types.sealed_message_len c

let test_histogram_counts () =
  let d = Deaddrop.create () in
  (* One lone drop, one pair, one triple: m1/m2/m_more = 1/1/1. *)
  Deaddrop.put d ~slot:0 ~drop_id:(drop_id 'a') ~sealed:(sealed 'A');
  Deaddrop.put d ~slot:1 ~drop_id:(drop_id 'b') ~sealed:(sealed 'B');
  Deaddrop.put d ~slot:2 ~drop_id:(drop_id 'b') ~sealed:(sealed 'C');
  Deaddrop.put d ~slot:3 ~drop_id:(drop_id 'c') ~sealed:(sealed 'D');
  Deaddrop.put d ~slot:4 ~drop_id:(drop_id 'c') ~sealed:(sealed 'E');
  Deaddrop.put d ~slot:5 ~drop_id:(drop_id 'c') ~sealed:(sealed 'F');
  let h = Deaddrop.histogram d in
  Alcotest.(check int) "m1" 1 h.Deaddrop.m1;
  Alcotest.(check int) "m2" 1 h.Deaddrop.m2;
  Alcotest.(check int) "m_more" 1 h.Deaddrop.m_more;
  (* Four shards sum their per-shard counts to the same observables. *)
  let s = Deaddrop.create ~shards:4 () in
  List.iter
    (fun (slot, id, body) -> Deaddrop.put s ~slot ~drop_id:id ~sealed:body)
    [
      (0, drop_id 'a', sealed 'A');
      (1, drop_id 'b', sealed 'B');
      (2, drop_id 'b', sealed 'C');
      (3, drop_id 'c', sealed 'D');
      (4, drop_id 'c', sealed 'E');
      (5, drop_id 'c', sealed 'F');
    ];
  let hs = Deaddrop.histogram s in
  Alcotest.(check int) "sharded m1" 1 hs.Deaddrop.m1;
  Alcotest.(check int) "sharded m2" 1 hs.Deaddrop.m2;
  Alcotest.(check int) "sharded m_more" 1 hs.Deaddrop.m_more;
  Alcotest.(check int) "sharded access count" 6
    (Deaddrop.total_accesses s)

let test_invitation_size_counts () =
  let store = Deaddrop.Invitation.create ~m:8 in
  let inv i = Bytes.of_string (Printf.sprintf "invitation-%d" i) in
  for i = 0 to 19 do
    Deaddrop.Invitation.put store ~index:(i mod 3) (inv i)
  done;
  for index = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "size at index %d = fetch length" index)
      (List.length (Deaddrop.Invitation.fetch store ~index))
      (Deaddrop.Invitation.size store ~index)
  done;
  Alcotest.(check int) "total = sum of sizes" 20
    (Deaddrop.Invitation.total store)

(* ------------------------------------------------------------------ *)
(* Loadgen: a real population through a real chain, streamed entry     *)
(* ------------------------------------------------------------------ *)

let test_loadgen_round_trip () =
  let chain =
    Chain.of_config
      Config.(
        default |> with_seed "scale-plane-loadgen" |> with_n_servers 3
        |> with_noise (Laplace.params ~mu:3. ~b:1.)
        |> with_noise_mode Noise.Deterministic |> with_deaddrop_shards 4)
  in
  Fun.protect
    ~finally:(fun () -> Chain.shutdown chain)
    (fun () ->
      let server_pks = Chain.public_keys chain in
      (* Odd population: 16 conversing pairs plus one cover-only loner. *)
      let pop = Loadgen.create ~seed:"lg-unit" ~n:33 () in
      for round = 1 to 2 do
        let replies =
          match
            Chain.conversation_round_streamed chain ~round
              ~produce:(fun feed ->
                Loadgen.feed_conversation pop ~round ~server_pks ~chunk:7
                  ~sink:feed)
          with
          | Ok replies -> replies
          | Error st ->
              Alcotest.failf "round %d: %a" round Rpc.pp_status st
        in
        let d = Loadgen.verify pop ~round replies in
        Alcotest.(check int)
          (Printf.sprintf "round %d: every pair exchanged" round)
          d.Loadgen.expected d.Loadgen.delivered;
        Alcotest.(check int)
          (Printf.sprintf "round %d: loner saw the empty result" round)
          1 d.Loadgen.lone
      done;
      (* The materialized batch is the chunk concatenation. *)
      let streamed = ref [] in
      Loadgen.feed_conversation pop ~round:3 ~server_pks ~chunk:5
        ~sink:(fun part -> streamed := part :: !streamed);
      let pop2 = Loadgen.create ~seed:"lg-unit" ~n:33 () in
      for round = 1 to 2 do
        ignore (Loadgen.conversation_onions pop2 ~round ~server_pks)
      done;
      let materialized =
        Loadgen.conversation_onions pop2 ~round:3 ~server_pks
      in
      let flat = Array.concat (List.rev !streamed) in
      Alcotest.(check int) "same batch size" (Array.length materialized)
        (Array.length flat);
      Array.iteri
        (fun i onion ->
          Alcotest.(check bool)
            (Printf.sprintf "onion %d bit-identical" i)
            true
            (Bytes.equal onion materialized.(i)))
        flat)

(* ------------------------------------------------------------------ *)
(* Network supervisor: one entry path, clients build before the round  *)
(* ------------------------------------------------------------------ *)

(* Every deployment streams its requests through the entry tier in
   [entry_chunk] parts, so the peak stays below the batch; and the
   clients build before the round, so their span sits outside the
   round root and the timed window. *)
let test_network_streaming_round () =
  let module Trace = Vuvuzela_telemetry.Trace in
  let tel = Vuvuzela_telemetry.Telemetry.create () in
  let net =
    Network.of_config
      Network.Config.(
        default |> with_seed "net-streaming"
        |> with_noise (Laplace.params ~mu:3. ~b:1.)
        |> with_noise_mode Noise.Deterministic
        |> with_pipeline ~chunk:2 true |> with_telemetry tel)
  in
  Fun.protect
    ~finally:(fun () -> Network.shutdown net)
    (fun () ->
      let a = Network.connect ~seed:"sa" net in
      let b = Network.connect ~seed:"sb" net in
      let c = Network.connect ~seed:"sc" net in
      let d = Network.connect ~seed:"sd" net in
      Client.start_conversation a ~peer_pk:(Client.public_key b);
      Client.start_conversation b ~peer_pk:(Client.public_key a);
      Client.start_conversation c ~peer_pk:(Client.public_key d);
      Client.start_conversation d ~peer_pk:(Client.public_key c);
      Client.send a "streamed hello";
      let report = Network.run ~kind:Round.Conversation net in
      Alcotest.(check int) "all four in the round" 4
        report.Network.batch_size;
      let peak = report.Network.peak_buffered
      and chunk = Network.entry_chunk net in
      Alcotest.(check bool)
        (Printf.sprintf "peak buffered (%d) <= entry chunk (%d) < batch (%d)"
           peak chunk report.Network.batch_size)
        true
        (peak <= chunk && chunk < report.Network.batch_size);
      let spans = Trace.spans (Vuvuzela_telemetry.Telemetry.trace tel) in
      let find name =
        match
          List.find_opt
            (fun sp ->
              sp.Trace.name = name && sp.Trace.round = report.Network.round)
            spans
        with
        | Some sp -> sp
        | None -> Alcotest.failf "no %s span for the round" name
      in
      let root = find "conv-round" and build = find "client-build" in
      let rec under sp =
        match sp.Trace.parent with
        | None -> false
        | Some p -> (
            p = root.Trace.id
            ||
            match List.find_opt (fun s -> s.Trace.id = p) spans with
            | Some parent -> under parent
            | None -> false)
      in
      Alcotest.(check bool) "client-build is not under the round root" false
        (under build);
      Alcotest.(check bool)
        (Printf.sprintf "client-build ends (%.3f ms) before the root starts \
                         (%.3f ms)"
           (build.Trace.start_ms +. build.Trace.dur_ms)
           root.Trace.start_ms)
        true
        (build.Trace.start_ms +. build.Trace.dur_ms <= root.Trace.start_ms);
      let delivered =
        List.exists
          (fun (cl, evs) ->
            cl == b
            && List.exists
                 (function
                   | Client.Delivered { text; _ } -> text = "streamed hello"
                   | _ -> false)
                 evs)
          report.Network.events
      in
      Alcotest.(check bool) "message delivered through streamed entry" true
        delivered)

let suite =
  ( "scale-plane",
    [
      Alcotest.test_case "streaming entry peak bounded by chunk" `Quick
        test_streaming_peak_bound;
      Alcotest.test_case "streaming peak population-independent" `Quick
        test_streaming_peak_population_independent;
      Alcotest.test_case "O(1) histogram counts" `Quick test_histogram_counts;
      Alcotest.test_case "O(1) invitation sizes" `Quick
        test_invitation_size_counts;
      Alcotest.test_case "loadgen round trip through a chain" `Quick
        test_loadgen_round_trip;
      Alcotest.test_case "supervisor streaming round" `Quick
        test_network_streaming_round;
    ] )
