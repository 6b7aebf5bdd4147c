(* Certified dialing end to end (§9 PKI extension): a deployment where
   every invitation carries a verifiable caller certificate. *)

open Vuvuzela_crypto
open Vuvuzela_dp
open Vuvuzela

let make_net () =
  Network.of_config
    Network.Config.(
      default |> with_seed "certified-net"
      |> with_noise (Laplace.params ~mu:3. ~b:1.)
      |> with_dial_noise (Laplace.params ~mu:2. ~b:1.)
      |> with_noise_mode Noise.Deterministic
      |> with_dial_kind Dialing.Certified)

let signing_identity seed = Ed25519.keypair ~rng:(Drbg.of_string seed) ()

let test_certified_call_end_to_end () =
  let net = make_net () in
  let alice_sk, alice_signing_pk = signing_identity "alice-signer" in
  let alice =
    Network.connect ~seed:"alice"
      ~certified:{ Client.signing_sk = alice_sk; name = "alice"; validity = 5 }
      net
  in
  let bob = Network.connect ~seed:"bob" net in
  let _idle =
    Network.connect ~seed:"idle"
      ~certified:
        { Client.signing_sk = fst (signing_identity "idle-signer");
          name = "idle"; validity = 5 }
      net
  in
  Client.dial alice ~callee_pk:(Client.public_key bob);
  let events = (Network.run ~kind:Round.Dialing net).Network.events in
  match events with
  | [ (c, [ Client.Incoming_call { caller; certificate = Some cert } ]) ] ->
      Alcotest.(check bool) "callee is bob" true (c == bob);
      Alcotest.(check string) "caller key"
        (Bytes_util.to_hex (Client.public_key alice))
        (Bytes_util.to_hex caller);
      (* Bob verifies under his trust store (he knows alice's signing
         key out of band). *)
      (match
         Certificate.verify ~now:1
           ~trusted:(fun k -> Bytes.equal k alice_signing_pk)
           cert
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "valid cert rejected: %a" Certificate.pp_error e);
      Alcotest.(check bool) "name binds" true
        (Certificate.matches_name cert "alice");
      Alcotest.(check bool) "cert covers the caller key" true
        (Bytes.equal cert.Certificate.subject_pk caller);
      (* A different trust store rejects it. *)
      (match Certificate.verify ~now:1 ~trusted:(fun _ -> false) cert with
      | Error Certificate.Untrusted_issuer -> ()
      | _ -> Alcotest.fail "untrusted issuer accepted")
  | [ (_, evs) ] -> Alcotest.failf "unexpected events: %d" (List.length evs)
  | l -> Alcotest.failf "expected exactly one ringing client, got %d" (List.length l)

let test_certified_sizes_uniform () =
  (* Real certified invitations, no-ops, and noise are the same size on
     the wire, so the last server's drops are uniform blobs. *)
  let rng = Drbg.of_string "cert-sizes" in
  let id = Types.identity_of_seed (Bytes.of_string "size-id") in
  let sk, _ = signing_identity "size-signer" in
  let cert =
    Certificate.self_signed ~signing_sk:sk ~conversation_pk:id.Types.public
      ~name:"n" ~expires:10
  in
  let callee = Types.identity_of_seed (Bytes.of_string "size-callee") in
  let real =
    Dialing.invite_certified ~rng ~identity:id ~cert
      ~callee_pk:callee.Types.public ~m:2 ()
  in
  let idle = Dialing.noop ~rng ~kind:Dialing.Certified () in
  let noise =
    Harness.noise_payload ~rng ~kind:Dialing.Certified ~index:0 ()
  in
  Alcotest.(check int) "real = payload_len"
    (Dialing.payload_len Dialing.Certified)
    (Bytes.length real);
  Alcotest.(check int) "noop same" (Bytes.length real) (Bytes.length idle);
  Alcotest.(check int) "noise same" (Bytes.length real) (Bytes.length noise)

let test_plain_invitation_rejected_in_certified_deployment () =
  (* (a) A certificate-less client cannot dial in a certified
     deployment — caught client-side.  (b) A malicious client injecting
     an 80-byte invitation anyway: the last server discards it (wrong
     size), the callee never rings, and reply alignment is preserved. *)
  let net = make_net () in
  let alice = Network.connect ~seed:"alice-plain" net in
  let bob = Network.connect ~seed:"bob2" net in
  Client.dial alice ~callee_pk:(Client.public_key bob);
  Alcotest.(check bool) "client-side guard" true
    (try
       ignore (Network.run ~kind:Round.Dialing net);
       false
     with Invalid_argument _ -> true);
  (* Inject the plain invitation directly through the chain. *)
  let rng = Drbg.of_string "inject" in
  let chain = Network.chain net in
  let payload =
    Dialing.invite ~rng
      ~identity:(Client.identity alice)
      ~callee_pk:(Client.public_key bob) ~m:1 ()
  in
  let onion =
    (Vuvuzela_mixnet.Onion.wrap ~rng ~server_pks:(Chain.public_keys chain)
       ~round:77 payload)
      .Vuvuzela_mixnet.Onion.onion
  in
  let acks =
    Harness.round_exn (Chain.remote chain) ~kind:Round.Dialing ~m:1 ~round:77
      [| onion |]
  in
  Alcotest.(check int) "still acked (alignment kept)" 1 (Array.length acks);
  (* The undersized onion is dropped at the FIRST server (size
     uniformity at ingress), before it can be traced through the mix. *)
  Alcotest.(check bool) "first server flagged it" true
    ((Server.metrics (Chain.server chain 0)).Server.invalid_requests > 0);
  let drop = Chain.fetch_invitations chain ~index:0 in
  (* Every stored invitation has the certified size: the 80-byte one was
     dropped. *)
  List.iter
    (fun inv ->
      Alcotest.(check int) "only certified-size blobs stored"
        Certificate.certified_invitation_len (Bytes.length inv))
    drop;
  Alcotest.(check int) "bob finds nothing" 0
    (List.length (Dialing.scan ~identity:(Client.identity bob) drop))

let test_expired_certificate_flagged () =
  let net = make_net () in
  let sk, spk = signing_identity "expire-signer" in
  let alice =
    Network.connect ~seed:"alice3"
      ~certified:{ Client.signing_sk = sk; name = "alice"; validity = 0 }
      net
  in
  let bob = Network.connect ~seed:"bob3" net in
  Client.dial alice ~callee_pk:(Client.public_key bob);
  let events = (Network.run ~kind:Round.Dialing net).Network.events in
  match events with
  | [ (_, [ Client.Incoming_call { certificate = Some cert; _ } ]) ] -> (
      (* validity 0 expires after the dialing round it was issued in;
         verifying two rounds later must fail. *)
      match
        Certificate.verify ~now:3 ~trusted:(fun k -> Bytes.equal k spk) cert
      with
      | Error (Certificate.Expired _) -> ()
      | Ok () -> Alcotest.fail "expired certificate verified"
      | Error e -> Alcotest.failf "unexpected error: %a" Certificate.pp_error e)
  | _ -> Alcotest.fail "call not delivered"

let test_certified_noise_not_decryptable () =
  (* With nobody dialing, certified drops contain only noise; trial
     decryption finds nothing. *)
  let net = make_net () in
  let bob =
    Network.connect ~seed:"bob4"
      ~certified:
        { Client.signing_sk = fst (signing_identity "b4"); name = "bob";
          validity = 5 }
      net
  in
  ignore bob;
  let events = (Network.run ~kind:Round.Dialing net).Network.events in
  Alcotest.(check int) "silence" 0 (List.length events);
  (* The drop is nonetheless non-empty (noise from 3 servers). *)
  let size =
    List.length (Chain.fetch_invitations (Network.chain net) ~index:0)
  in
  Alcotest.(check bool) "noise present" true (size >= 6)

let suite =
  let tc = Alcotest.test_case in
  ( "certified",
    [
      tc "certified call end to end" `Quick test_certified_call_end_to_end;
      tc "certified sizes uniform" `Quick test_certified_sizes_uniform;
      tc "plain invitation rejected" `Quick test_plain_invitation_rejected_in_certified_deployment;
      tc "expired certificate flagged" `Quick test_expired_certificate_flagged;
      tc "certified noise not decryptable" `Quick test_certified_noise_not_decryptable;
    ] )
