(* Core protocol unit tests: message codec, conversation sessions,
   dialing payloads, dead-drop stores. *)

open Vuvuzela_crypto
open Vuvuzela

let alice = Types.identity_of_seed (Bytes.of_string "alice-seed")
let bob = Types.identity_of_seed (Bytes.of_string "bob-seed")
let charlie = Types.identity_of_seed (Bytes.of_string "charlie-seed")

(* ------------------------------------------------------------------ *)
(* Message codec                                                       *)
(* ------------------------------------------------------------------ *)

let test_message_sizes () =
  Alcotest.(check int) "plain length" Types.message_plain_len
    (Bytes.length (Message.encode (Message.Empty { ack = 0 })));
  Alcotest.(check int) "data same length" Types.message_plain_len
    (Bytes.length
       (Message.encode (Message.Data { seq = 1; ack = 9; text = "hi" })));
  let max_text = String.make Types.text_capacity 'x' in
  Alcotest.(check int) "max text fits" Types.message_plain_len
    (Bytes.length
       (Message.encode (Message.Data { seq = 1; ack = 0; text = max_text })));
  Alcotest.(check bool) "oversize rejected" true
    (try
       ignore
         (Message.encode
            (Message.Data
               { seq = 1; ack = 0; text = String.make (Types.text_capacity + 1) 'x' }));
       false
     with Invalid_argument _ -> true)

let test_message_roundtrip () =
  let check m =
    match Message.decode (Message.encode m) with
    | Ok m' ->
        if not (Message.equal m m') then
          Alcotest.fail "roundtrip mismatch"
    | Error e -> Alcotest.fail e
  in
  check (Message.Empty { ack = 0 });
  check (Message.Empty { ack = 12345 });
  check (Message.Data { seq = 1; ack = 0; text = "" });
  check (Message.Data { seq = 7; ack = 3; text = "hello world" });
  check
    (Message.Data
       { seq = 0xffff; ack = 0xfffe; text = String.make Types.text_capacity 'q' })

let test_message_decode_errors () =
  (match Message.decode (Bytes.make 10 '\000') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong size accepted");
  (* Unknown kind byte. *)
  let b = Message.encode (Message.Empty { ack = 0 }) in
  Bytes.set b 0 '\x07';
  (match Message.decode b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind accepted");
  (* Length field beyond capacity. *)
  let b = Message.encode (Message.Empty { ack = 0 }) in
  Bytes.set b 9 '\xff';
  Bytes.set b 10 '\xff';
  match Message.decode b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad length accepted"

let test_direction_keys_mirror () =
  let raw = Curve25519.shared ~secret:alice.Types.secret ~public:bob.Types.public in
  let ka =
    Message.direction_keys ~base:raw ~my_pk:alice.Types.public
      ~their_pk:bob.Types.public
  in
  let kb =
    Message.direction_keys ~base:raw ~my_pk:bob.Types.public
      ~their_pk:alice.Types.public
  in
  Alcotest.(check string) "a.send = b.recv"
    (Bytes_util.to_hex ka.Message.send)
    (Bytes_util.to_hex kb.Message.recv);
  Alcotest.(check string) "a.recv = b.send"
    (Bytes_util.to_hex ka.Message.recv)
    (Bytes_util.to_hex kb.Message.send);
  Alcotest.(check bool) "directions differ" false
    (Bytes.equal ka.Message.send ka.Message.recv)

let test_message_seal_open () =
  let raw = Curve25519.shared ~secret:alice.Types.secret ~public:bob.Types.public in
  let ka = Message.direction_keys ~base:raw ~my_pk:alice.Types.public ~their_pk:bob.Types.public in
  let kb = Message.direction_keys ~base:raw ~my_pk:bob.Types.public ~their_pk:alice.Types.public in
  let m = Message.Data { seq = 3; ack = 2; text = "sealed hello" } in
  let sealed = Message.seal ~keys:ka ~round:42 m in
  Alcotest.(check int) "sealed size" Types.sealed_message_len (Bytes.length sealed);
  (match Message.open_ ~keys:kb ~round:42 sealed with
  | Some m' -> Alcotest.(check bool) "roundtrip" true (Message.equal m m')
  | None -> Alcotest.fail "open failed");
  (* Wrong round (nonce) fails; own key fails (no reflection). *)
  Alcotest.(check bool) "wrong round" true
    (Message.open_ ~keys:kb ~round:43 sealed = None);
  Alcotest.(check bool) "sender cannot open own message" true
    (Message.open_ ~keys:ka ~round:42 sealed = None)

(* ------------------------------------------------------------------ *)
(* Conversation sessions                                               *)
(* ------------------------------------------------------------------ *)

let test_session_symmetric_drops () =
  let sa = Conversation.derive ~identity:alice ~peer_pk:bob.Types.public in
  let sb = Conversation.derive ~identity:bob ~peer_pk:alice.Types.public in
  for round = 1 to 20 do
    Alcotest.(check string)
      (Printf.sprintf "drop id round %d" round)
      (Bytes_util.to_hex (Conversation.drop_id sa ~round))
      (Bytes_util.to_hex (Conversation.drop_id sb ~round))
  done

let test_session_drops_fresh_per_round () =
  let sa = Conversation.derive ~identity:alice ~peer_pk:bob.Types.public in
  let seen = Hashtbl.create 64 in
  for round = 1 to 100 do
    let id = Bytes.to_string (Conversation.drop_id sa ~round) in
    if Hashtbl.mem seen id then Alcotest.fail "dead drop repeated";
    Hashtbl.replace seen id ()
  done

let test_session_pairs_disjoint () =
  (* Different pairs derive different drops in the same round. *)
  let sab = Conversation.derive ~identity:alice ~peer_pk:bob.Types.public in
  let sac = Conversation.derive ~identity:alice ~peer_pk:charlie.Types.public in
  Alcotest.(check bool) "disjoint drops" false
    (Bytes.equal (Conversation.drop_id sab ~round:5) (Conversation.drop_id sac ~round:5))

let test_session_exchange_roundtrip () =
  let sa = Conversation.derive ~identity:alice ~peer_pk:bob.Types.public in
  let sb = Conversation.derive ~identity:bob ~peer_pk:alice.Types.public in
  let m = Message.Data { seq = 1; ack = 0; text = "over the drop" } in
  let payload = Conversation.exchange_payload sa ~round:9 m in
  Alcotest.(check int) "payload size" Types.exchange_payload_len
    (Bytes.length payload);
  let sealed = Bytes.sub payload Types.drop_id_len Types.sealed_message_len in
  (match Conversation.read_result sb ~round:9 sealed with
  | Some m' -> Alcotest.(check bool) "bob reads alice" true (Message.equal m m')
  | None -> Alcotest.fail "read_result failed");
  (* The empty (all-zero) result reads as None. *)
  Alcotest.(check bool) "empty result is None" true
    (Conversation.read_result sb ~round:9 Deaddrop.empty_result = None)

let test_fake_sessions_unique () =
  let rng = Drbg.of_string "fake" in
  let s1 = Conversation.fake ~rng ~identity:alice () in
  let s2 = Conversation.fake ~rng ~identity:alice () in
  Alcotest.(check bool) "fake drops differ" false
    (Bytes.equal (Conversation.drop_id s1 ~round:1) (Conversation.drop_id s2 ~round:1))

(* ------------------------------------------------------------------ *)
(* Dialing payloads                                                    *)
(* ------------------------------------------------------------------ *)

let test_dialing_sizes () =
  let rng = Drbg.of_string "dial-size" in
  let real = Dialing.invite ~rng ~identity:alice ~callee_pk:bob.Types.public ~m:4 () in
  let idle = Dialing.noop ~rng () in
  let noise = Harness.noise_payload ~rng ~index:2 () in
  let len = 82 (* a 2-byte drop index and an 80-byte invitation *) in
  Alcotest.(check int) "real payload" len (Bytes.length real);
  Alcotest.(check int) "noop payload" len (Bytes.length idle);
  Alcotest.(check int) "noise payload" len (Bytes.length noise)

let test_dialing_addressing () =
  let m = 8 in
  let rng = Drbg.of_string "dial-addr" in
  let payload = Dialing.invite ~rng ~identity:alice ~callee_pk:bob.Types.public ~m () in
  match Dialing.decode_payload payload with
  | Ok (index, _) ->
      Alcotest.(check int) "addressed to H(pk) mod m"
        (Deaddrop.Invitation.index_of ~m bob.Types.public)
        index
  | Error e -> Alcotest.fail e

let test_dialing_scan () =
  let rng = Drbg.of_string "dial-scan" in
  let m = 1 in
  let inv_of payload =
    match Dialing.decode_payload payload with
    | Ok (_, inv) -> inv
    | Error e -> Alcotest.fail e
  in
  let for_bob = inv_of (Dialing.invite ~rng ~identity:alice ~callee_pk:bob.Types.public ~m ()) in
  let for_charlie = inv_of (Dialing.invite ~rng ~identity:alice ~callee_pk:charlie.Types.public ~m ()) in
  let noise = inv_of (Harness.noise_payload ~rng ~index:0 ()) in
  let drop = [ noise; for_charlie; for_bob; noise ] in
  (* Bob finds exactly his invitation and learns the caller. *)
  (match Dialing.scan ~identity:bob drop with
  | [ caller ] ->
      Alcotest.(check string) "caller is alice"
        (Bytes_util.to_hex alice.Types.public)
        (Bytes_util.to_hex caller)
  | l -> Alcotest.failf "bob found %d invitations" (List.length l));
  (* A bystander finds nothing. *)
  let dave = Types.identity_of_seed (Bytes.of_string "dave") in
  Alcotest.(check int) "dave finds none" 0
    (List.length (Dialing.scan ~identity:dave drop))

let test_dialing_noop_index () =
  let rng = Drbg.of_string "dial-noop" in
  match Dialing.decode_payload (Dialing.noop ~rng ()) with
  | Ok (index, _) -> Alcotest.(check int) "noop drop" Types.noop_drop index
  | Error e -> Alcotest.fail e

(* A low-order ephemeral key gives the all-zero DH whatever the
   callee's secret, so anyone can seal an invitation that opens for
   them: the key [Box.derive] makes of 32 zero bytes, under the
   callee's nonce.  A scan drops it (RFC 7748 §6.1), in both formats. *)
let test_dialing_low_order_key_dropped () =
  let epk = Bytes.make Curve25519.key_len '\000' in
  let forge plain =
    let nonce =
      Bytes.sub (Sha256.digest_list [ epk; bob.Types.public ]) 0 Aead.nonce_len
    in
    Bytes.cat epk
      (Aead.seal ~key:(Box.derive (Bytes.make 32 '\000')) ~nonce plain)
  in
  let plain = forge alice.Types.public in
  Alcotest.(check int) "plain size" Types.invitation_len (Bytes.length plain);
  Alcotest.(check int) "plain scan" 0
    (List.length (Dialing.scan ~identity:bob [ plain ]));
  let signing_sk, _ = Ed25519.keypair ~rng:(Drbg.of_string "low-order") () in
  let cert =
    Certificate.self_signed ~signing_sk ~conversation_pk:alice.Types.public
      ~name:"alice" ~expires:10
  in
  let certified = forge (Bytes.cat alice.Types.public (Certificate.encode cert)) in
  Alcotest.(check int) "certified size" Certificate.certified_invitation_len
    (Bytes.length certified);
  Alcotest.(check int) "certified scan" 0
    (List.length (Dialing.scan_certified ~identity:bob [ certified ]))

(* A scan runs its drop's DHs as one batch, and must return exactly what
   opening each invitation alone gives, in drop order: over a drop of
   real invitations (two for bob, one for charlie), noise invitations, a
   forged low-order invitation and items of the wrong size, in both
   formats. *)
let test_dialing_scan_batched () =
  let rng = Drbg.of_string "dial-scan-batch" in
  let inv_of payload =
    match Dialing.decode_payload payload with
    | Ok (_, inv) -> inv
    | Error e -> Alcotest.fail e
  in
  let epk = Bytes.make Curve25519.key_len '\000' in
  let forge plain =
    let nonce =
      Bytes.sub (Sha256.digest_list [ epk; bob.Types.public ]) 0 Aead.nonce_len
    in
    Bytes.cat epk
      (Aead.seal ~key:(Box.derive (Bytes.make 32 '\000')) ~nonce plain)
  in
  let invite ~from callee =
    inv_of (Dialing.invite ~rng ~identity:from ~callee_pk:callee ~m:1 ())
  in
  let noise kind = inv_of (Harness.noise_payload ~rng ~kind ~index:0 ()) in
  let plain_drop =
    [
      noise Dialing.Plain;
      invite ~from:alice bob.Types.public;
      forge alice.Types.public;
      Bytes.make 10 'x';
      invite ~from:alice charlie.Types.public;
      Bytes.make (Types.invitation_len - 1) 'y';
      noise Dialing.Plain;
      invite ~from:charlie bob.Types.public;
    ]
  in
  let one_by_one =
    List.filter_map
      (fun inv ->
        if Bytes.length inv <> Types.invitation_len then None
        else
          match
            Box.open_anonymous ~recipient_sk:bob.Types.secret
              ~recipient_pk:bob.Types.public inv
          with
          | Some pk when Bytes.length pk = Curve25519.key_len -> Some pk
          | _ -> None)
      plain_drop
  in
  let hexes = List.map Bytes_util.to_hex in
  Alcotest.(check (list string)) "plain scan = one by one" (hexes one_by_one)
    (hexes (Dialing.scan ~identity:bob plain_drop));
  Alcotest.(check (list string)) "alice, then charlie"
    (hexes [ alice.Types.public; charlie.Types.public ])
    (hexes one_by_one);
  let signing_sk, _ = Ed25519.keypair ~rng () in
  let cert_of (id : Types.identity) name =
    Certificate.self_signed ~signing_sk ~conversation_pk:id.public ~name
      ~expires:10
  in
  let invite_certified ~from name =
    inv_of
      (Dialing.invite_certified ~rng ~identity:from ~cert:(cert_of from name)
         ~callee_pk:bob.Types.public ~m:1 ())
  in
  let certified_drop =
    [
      invite_certified ~from:charlie "charlie";
      noise Dialing.Certified;
      forge
        (Bytes.cat alice.Types.public
           (Certificate.encode (cert_of alice "alice")));
      Bytes.make 10 'x';
      invite_certified ~from:alice "alice";
      invite ~from:alice bob.Types.public;
    ]
  in
  let one_by_one =
    List.filter_map
      (fun inv ->
        if Bytes.length inv <> Certificate.certified_invitation_len then None
        else
          Certificate.open_certified ~recipient_sk:bob.Types.secret
            ~recipient_pk:bob.Types.public inv)
      certified_drop
  in
  let callers = List.map (fun (pk, _) -> Bytes_util.to_hex pk) in
  Alcotest.(check (list string)) "certified scan = one by one"
    (callers one_by_one)
    (callers (Dialing.scan_certified ~identity:bob certified_drop));
  Alcotest.(check (list string)) "charlie, then alice"
    (hexes [ charlie.Types.public; alice.Types.public ])
    (callers one_by_one)

(* ------------------------------------------------------------------ *)
(* Dead drops                                                          *)
(* ------------------------------------------------------------------ *)

let drop_id_of_int i =
  let b = Bytes.make Types.drop_id_len '\000' in
  Bytes_util.store_le64 b 0 i;
  b

let test_deaddrop_exchange () =
  let t = Deaddrop.create () in
  let d = drop_id_of_int 1 in
  Deaddrop.put t ~slot:0 ~drop_id:d ~sealed:(Bytes.make 256 'A');
  Deaddrop.put t ~slot:1 ~drop_id:d ~sealed:(Bytes.make 256 'B');
  Deaddrop.put t ~slot:2 ~drop_id:(drop_id_of_int 2) ~sealed:(Bytes.make 256 'C');
  let r = Deaddrop.resolve t ~n_slots:3 in
  Alcotest.(check char) "slot 0 gets B" 'B' (Bytes.get r.(0) 0);
  Alcotest.(check char) "slot 1 gets A" 'A' (Bytes.get r.(1) 0);
  Alcotest.(check bool) "lone access gets empty" true
    (Bytes.equal r.(2) Deaddrop.empty_result)

let test_deaddrop_histogram () =
  let t = Deaddrop.create () in
  let put slot i = Deaddrop.put t ~slot ~drop_id:(drop_id_of_int i) ~sealed:(Bytes.make 256 'x') in
  put 0 1; put 1 1;          (* pair *)
  put 2 2;                   (* single *)
  put 3 3; put 4 3; put 5 3; (* triple (adversarial) *)
  let h = Deaddrop.histogram t in
  Alcotest.(check int) "m1" 1 h.Deaddrop.m1;
  Alcotest.(check int) "m2" 1 h.Deaddrop.m2;
  Alcotest.(check int) "m>2" 1 h.Deaddrop.m_more

let test_deaddrop_triple_access () =
  (* First two exchange; the third (adversarial duplicate) gets empty. *)
  let t = Deaddrop.create () in
  let d = drop_id_of_int 9 in
  Deaddrop.put t ~slot:0 ~drop_id:d ~sealed:(Bytes.make 256 'A');
  Deaddrop.put t ~slot:1 ~drop_id:d ~sealed:(Bytes.make 256 'B');
  Deaddrop.put t ~slot:2 ~drop_id:d ~sealed:(Bytes.make 256 'E');
  let r = Deaddrop.resolve t ~n_slots:3 in
  Alcotest.(check char) "first two exchange" 'B' (Bytes.get r.(0) 0);
  Alcotest.(check char) "first two exchange (2)" 'A' (Bytes.get r.(1) 0);
  Alcotest.(check bool) "third gets empty" true
    (Bytes.equal r.(2) Deaddrop.empty_result)

let test_deaddrop_clear () =
  let t = Deaddrop.create () in
  Deaddrop.put t ~slot:0 ~drop_id:(drop_id_of_int 1) ~sealed:(Bytes.make 256 'x');
  Deaddrop.clear t;
  let h = Deaddrop.histogram t in
  Alcotest.(check int) "cleared" 0 (h.Deaddrop.m1 + h.Deaddrop.m2 + h.Deaddrop.m_more)

let test_invitation_store () =
  let s = Deaddrop.Invitation.create ~m:4 in
  Deaddrop.Invitation.put s ~index:2 (Bytes.of_string "inv1");
  Deaddrop.Invitation.put s ~index:2 (Bytes.of_string "inv2");
  Deaddrop.Invitation.put s ~index:0 (Bytes.of_string "inv3");
  Deaddrop.Invitation.put s ~index:Types.noop_drop (Bytes.of_string "dropped");
  Alcotest.(check (list string)) "fetch in order" [ "inv1"; "inv2" ]
    (List.map Bytes.to_string (Deaddrop.Invitation.fetch s ~index:2));
  Alcotest.(check int) "size" 2 (Deaddrop.Invitation.size s ~index:2);
  Alcotest.(check int) "total excludes noop" 3 (Deaddrop.Invitation.total s);
  Alcotest.check_raises "bad index" (Invalid_argument "Invitation.put: bad drop index")
    (fun () -> Deaddrop.Invitation.put s ~index:7 Bytes.empty)

(* A malicious previous hop can file its own invitation [k] between two
   client invitations.  Sealed, the drop is served in byte order whatever
   the arrival order, so its position tells nothing: every arrival order
   of the three serves the same list, sorted, and a permutation of what
   was filed. *)
let test_invitation_drop_canonical () =
  let a = Bytes.of_string "\x10client-a"
  and k = Bytes.of_string "\x80known"
  and b = Bytes.of_string "\x33client-b" in
  let served order =
    let s = Deaddrop.Invitation.create ~m:2 in
    List.iter (Deaddrop.Invitation.put s ~index:1) order;
    Deaddrop.Invitation.put s ~index:0 (Bytes.of_string "other");
    Deaddrop.Invitation.seal s;
    Alcotest.(check (list string)) "the other drop" [ "other" ]
      (List.map Bytes.to_string (Deaddrop.Invitation.fetch s ~index:0));
    List.map Bytes.to_string (Deaddrop.Invitation.fetch s ~index:1)
  in
  let sorted = List.sort compare (List.map Bytes.to_string [ a; k; b ]) in
  List.iter
    (fun order ->
      let got = served order in
      Alcotest.(check (list string)) "served in byte order" sorted got;
      Alcotest.(check (list string)) "a permutation of what was filed"
        (List.sort compare (List.map Bytes.to_string order))
        (List.sort compare got))
    [ [ a; k; b ]; [ k; a; b ]; [ a; b; k ]; [ b; k; a ]; [ k; b; a ]; [ b; a; k ] ]

let test_invitation_index_stable () =
  let m = 16 in
  let i1 = Deaddrop.Invitation.index_of ~m alice.Types.public in
  let i2 = Deaddrop.Invitation.index_of ~m alice.Types.public in
  Alcotest.(check int) "deterministic" i1 i2;
  Alcotest.(check bool) "in range" true (i1 >= 0 && i1 < m)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"message codec roundtrip" ~count:200
      (triple (int_bound 0xffffff) (int_bound 0xffffff)
         (string_of_size (Gen.int_bound Types.text_capacity)))
      (fun (seq, ack, text) ->
        let m = Message.Data { seq; ack; text } in
        match Message.decode (Message.encode m) with
        | Ok m' -> Message.equal m m'
        | Error _ -> false);
    Test.make ~name:"invitation index always in range" ~count:100
      (pair (int_range 1 64) (string_of_size (Gen.return 32)))
      (fun (m, pk) ->
        let i = Deaddrop.Invitation.index_of ~m (Bytes.of_string pk) in
        i >= 0 && i < m);
    Test.make ~name:"resolve pairs every slot with 256 bytes" ~count:50
      (list_of_size (Gen.int_bound 40) (int_bound 10))
      (fun drops ->
        let t = Deaddrop.create () in
        List.iteri
          (fun slot d ->
            Deaddrop.put t ~slot ~drop_id:(drop_id_of_int d)
              ~sealed:(Bytes.make 256 (Char.chr (65 + (slot mod 26)))))
          drops;
        let r = Deaddrop.resolve t ~n_slots:(List.length drops) in
        Array.for_all (fun b -> Bytes.length b = 256) r);
  ]

let suite =
  let tc = Alcotest.test_case in
  ( "protocol",
    [
      tc "message sizes" `Quick test_message_sizes;
      tc "message roundtrip" `Quick test_message_roundtrip;
      tc "message decode errors" `Quick test_message_decode_errors;
      tc "direction keys mirror" `Quick test_direction_keys_mirror;
      tc "message seal/open" `Quick test_message_seal_open;
      tc "session drops symmetric" `Quick test_session_symmetric_drops;
      tc "session drops fresh per round" `Quick test_session_drops_fresh_per_round;
      tc "session pairs disjoint" `Quick test_session_pairs_disjoint;
      tc "session exchange roundtrip" `Quick test_session_exchange_roundtrip;
      tc "fake sessions unique" `Quick test_fake_sessions_unique;
      tc "dialing sizes" `Quick test_dialing_sizes;
      tc "dialing addressing" `Quick test_dialing_addressing;
      tc "dialing scan" `Quick test_dialing_scan;
      tc "dialing noop index" `Quick test_dialing_noop_index;
      tc "deaddrop exchange" `Quick test_deaddrop_exchange;
      tc "deaddrop histogram" `Quick test_deaddrop_histogram;
      tc "deaddrop triple access" `Quick test_deaddrop_triple_access;
      tc "deaddrop clear" `Quick test_deaddrop_clear;
      tc "invitation store" `Quick test_invitation_store;
      tc "sealed drops served in byte order" `Quick
        test_invitation_drop_canonical;
      tc "invitation index stable" `Quick test_invitation_index_stable;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
    @ [
        tc "dialing low-order key dropped" `Quick
          test_dialing_low_order_key_dropped;
        tc "dialing scan batched = one by one" `Quick test_dialing_scan_batched;
      ] )
