(* See the interface.  The conversation-only digest and its pin predate
   the transport subsystem (they pinned the 51-bit field rewrite); the
   dialing-inclusive digest extends the same hash so one constant covers
   both round types.  Everything here is a pure function of the seeds:
   any backend — in-process chain, loopback TCP daemons — that derives
   its servers from [seed] must reproduce these digests bit for bit. *)

open Vuvuzela_crypto
open Vuvuzela_dp
open Vuvuzela

type backend = {
  pks : bytes list;
  conversation_round : round:int -> bytes array -> bytes array;
  dialing_round : round:int -> m:int -> bytes array -> bytes array;
}

let seed = "transcript-pin"
let n_servers = 3
let noise = Laplace.params ~mu:3. ~b:1.
let dial_noise = Laplace.params ~mu:1. ~b:1.

let pinned_conv_digest =
  "f0a4328962790e997f48ca4e9b15e3f27665e12abacf58dfe90af0de7915b02d"

let pinned_full_digest =
  "adbcc26066142b304a5a9b7a5a899eaac9f9fac65357f89dc8e8978f202b14fc"

let of_remote remote =
  {
    pks = Remote.public_keys remote;
    conversation_round =
      (fun ~round requests ->
        Harness.round_exn remote ~kind:Round.Conversation ~round requests);
    dialing_round =
      (fun ~round ~m requests ->
        Harness.round_exn remote ~kind:Round.Dialing ~m ~round requests);
  }

let in_process ?telemetry ?(jobs = 1) ?pipeline_chunk ?(deaddrop_shards = 1)
    () =
  let chain =
    Chain.of_config
      Config.(
        default |> with_seed seed |> with_n_servers n_servers
        |> with_noise noise |> with_dial_noise dial_noise
        |> with_noise_mode Noise.Deterministic |> with_jobs jobs
        |> with_deaddrop_shards deaddrop_shards
        |> (match telemetry with
           | None -> Fun.id
           | Some tel -> with_telemetry tel)
        |>
        match pipeline_chunk with
        | None -> Fun.id
        | Some chunk -> with_pipeline ~chunk true)
  in
  (of_remote (Chain.remote chain), fun () -> Chain.shutdown chain)

(* 4 seeded clients in two conversing pairs; a[0] and c[2] have queued
   messages, the others send cover drops. *)
let make_clients pks =
  let clients =
    List.init 4 (fun i ->
        let cseed = Printf.sprintf "transcript-c%d" i in
        Client.create ~seed:cseed
          ~identity:(Types.identity_of_seed (Bytes.of_string cseed))
          ~server_pks:pks ())
  in
  (match clients with
  | a :: b :: c :: d :: _ ->
      Client.start_conversation a ~peer_pk:(Client.public_key b);
      Client.start_conversation b ~peer_pk:(Client.public_key a);
      Client.start_conversation c ~peer_pk:(Client.public_key d);
      Client.start_conversation d ~peer_pk:(Client.public_key c);
      Client.send a "hello from the pinned transcript";
      Client.send c "second pair payload"
  | _ -> assert false);
  clients

let feed_conv_rounds h backend clients =
  for round = 1 to 3 do
    let requests =
      Array.of_list
        (List.concat_map
           (fun c -> Client.conversation_requests c ~round)
           clients)
    in
    Array.iter (Sha256.feed h) requests;
    let replies = backend.conversation_round ~round requests in
    Array.iter (Sha256.feed h) replies;
    List.iteri
      (fun i c ->
        ignore (Client.handle_conversation_replies c ~round [ replies.(i) ]))
      clients
  done

let conv_digest backend =
  let clients = make_clients backend.pks in
  let h = Sha256.init () in
  List.iter (fun pk -> Sha256.feed h pk) backend.pks;
  feed_conv_rounds h backend clients;
  Bytes_util.to_hex (Sha256.get h)

let full_digest backend =
  let clients = make_clients backend.pks in
  let h = Sha256.init () in
  List.iter (fun pk -> Sha256.feed h pk) backend.pks;
  feed_conv_rounds h backend clients;
  let m = 1 in
  let requests =
    Array.of_list
      (List.map (fun c -> Client.dialing_request c ~dial_round:1 ~m) clients)
  in
  Array.iter (Sha256.feed h) requests;
  let acks = backend.dialing_round ~round:1 ~m requests in
  Array.iter (Sha256.feed h) acks;
  Bytes_util.to_hex (Sha256.get h)
