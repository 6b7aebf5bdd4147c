(* Infrastructure tests: the RPC wire protocol and the §5.5 CDN. *)

open Vuvuzela_crypto
open Vuvuzela_dp
open Vuvuzela

(* ------------------------------------------------------------------ *)
(* Rpc                                                                 *)
(* ------------------------------------------------------------------ *)

let roundtrip msg =
  match Rpc.decode (Rpc.encode msg) with
  | Ok m ->
      if not (Rpc.equal_message msg m) then Alcotest.fail "rpc mismatch"
  | Error e -> Alcotest.fail e

let test_rpc_roundtrips () =
  let rng = Drbg.of_string "rpc" in
  let batch n len = Array.init n (fun _ -> Drbg.generate rng len) in
  let conv_part ~seq ~last onions =
    Rpc.Conv_batch_part { round = 3; seq; last; onions }
  in
  roundtrip (conv_part ~seq:0 ~last:true (batch 5 416));
  roundtrip (conv_part ~seq:0 ~last:true [||]);
  roundtrip (conv_part ~seq:7 ~last:false (batch 2 416));
  roundtrip (Rpc.Conv_results { round = 3; replies = batch 5 304 });
  roundtrip
    (Rpc.Dial_batch_part
       { round = 1; m = 2; seq = 0; last = true; onions = batch 3 226 });
  roundtrip (Rpc.Dial_results { round = 1; replies = batch 3 49 });
  roundtrip (Rpc.Fetch_drop { dial_round = 9; index = 1 });
  roundtrip
    (Rpc.Drop_contents
       { dial_round = 9; index = 1; invitations = [ Drbg.generate rng 80 ] });
  roundtrip (Rpc.Drop_contents { dial_round = 9; index = 0; invitations = [] });
  roundtrip
    (Rpc.Status
       { round = 12; server = 1; stage = "conv-batch"; detail = "ragged" });
  roundtrip (Rpc.Status { round = 0; server = 0; stage = ""; detail = "" });
  roundtrip
    (Rpc.Trace_ctx
       {
         ctx =
           Vuvuzela_telemetry.Trace.encode_context
             { Vuvuzela_telemetry.Trace.trace = 77; origin = 1; span = 3 };
       })

let test_rpc_rejections () =
  let good = Rpc.encode (Rpc.Fetch_drop { dial_round = 1; index = 1 }) in
  (* Bad magic. *)
  let bad = Bytes.copy good in
  Bytes.set bad 0 'X';
  (match Rpc.decode bad with Error _ -> () | Ok _ -> Alcotest.fail "bad magic");
  (* Bad version. *)
  let bad = Bytes.copy good in
  Bytes.set bad 4 '\x09';
  (match Rpc.decode bad with Error _ -> () | Ok _ -> Alcotest.fail "bad version");
  (* Unknown tag. *)
  let bad = Bytes.copy good in
  Bytes.set bad 5 '\xee';
  (match Rpc.decode bad with Error _ -> () | Ok _ -> Alcotest.fail "bad tag");
  (* Truncation anywhere must fail cleanly. *)
  for cut = 0 to Bytes.length good - 1 do
    match Rpc.decode (Bytes.sub good 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncated at %d accepted" cut
  done;
  (* Trailing garbage rejected. *)
  (match Rpc.decode (Bytes.cat good (Bytes.make 1 'z')) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted");
  (* Ragged batches, and batches of empty items, rejected at encode
     time. *)
  List.iter
    (fun (what, onions) ->
      Alcotest.(check bool) what true
        (try
           ignore
             (Rpc.encode
                (Rpc.Conv_batch_part
                   { round = 1; seq = 0; last = true; onions }));
           false
         with Vuvuzela_mixnet.Wire.Error _ -> true))
    [
      ("ragged batch", [| Bytes.make 3 'a'; Bytes.make 4 'b' |]);
      ("empty items", [| Bytes.empty; Bytes.empty |]);
    ];
  (* A batch header of 2^26 empty items passes the count and total-size
     checks; it must still decode to [Error], not to 2^26 items.  An
     empty batch's frame ends with its u32 count and u32 item length. *)
  List.iter
    (fun msg ->
      let frame = Rpc.encode msg in
      let count_at = Bytes.length frame - 8 in
      Bytes.set_int32_le frame count_at (Int32.of_int (1 lsl 26));
      match Rpc.decode frame with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "2^26 empty items accepted (tag %d)"
            (Char.code (Bytes.get frame 5)))
    [
      Rpc.Conv_results { round = 1; replies = [||] };
      Rpc.Conv_batch_part { round = 1; seq = 0; last = true; onions = [||] };
      Rpc.Dial_batch_part
        { round = 1; m = 1; seq = 0; last = true; onions = [||] };
    ];
  (* The retired tags (round announcements, whole-batch frames) stay
     reserved: a frame carrying one decodes to a clean [Error], never a
     raise. *)
  List.iter
    (fun tag ->
      let frame = Bytes.copy good in
      Bytes.set frame 5 (Char.chr tag);
      match Rpc.decode frame with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "retired tag %d accepted" tag
      | exception e ->
          Alcotest.failf "retired tag %d raised %s" tag (Printexc.to_string e))
    [ 1; 2; 3; 5 ]

let test_rpc_fuzz () =
  (* Random byte strings never crash the decoder. *)
  let rng = Drbg.of_string "rpc-fuzz" in
  for _ = 1 to 500 do
    let len = Drbg.uniform ~rng 64 in
    match Rpc.decode (Drbg.generate rng len) with
    | Ok _ | Error _ -> ()
  done

(* The trace-context control frame is tolerated-if-absent and
   ignored-if-malformed: old-style streams (no Trace_ctx frame) parse
   exactly as before, a wrong-sized or bit-flipped context decodes to
   [None] at the [Trace.decode_context] layer, and an absurdly large
   one is rejected at the frame layer with a clean [Error] — no input
   reachable from the wire may raise, because a raise would take the
   daemon's round down with it. *)
let test_trace_ctx_wire () =
  let module Trace = Vuvuzela_telemetry.Trace in
  let ctx = { Trace.trace = 0x12345678; origin = 2; span = 41 } in
  let enc = Trace.encode_context ctx in
  Alcotest.(check int) "context length" Trace.context_len (Bytes.length enc);
  (match Trace.decode_context enc with
  | Some c -> Alcotest.(check bool) "context roundtrip" true (c = ctx)
  | None -> Alcotest.fail "valid context failed to decode");
  (* Wrong-sized payloads survive the frame layer; the context layer
     rejects them totally. *)
  List.iter
    (fun len ->
      let bad = Bytes.make len '\x41' in
      match Rpc.decode (Rpc.encode (Rpc.Trace_ctx { ctx = bad })) with
      | Ok (Rpc.Trace_ctx { ctx }) ->
          if len <> Trace.context_len then
            Alcotest.(check bool)
              (Printf.sprintf "%d-byte context decodes to None" len)
              true
              (Trace.decode_context ctx = None)
      | Ok _ -> Alcotest.fail "trace ctx decoded to another message"
      | Error e -> Alcotest.failf "%d-byte context rejected at frame: %s" len e)
    [ 0; 1; Trace.context_len - 1; Trace.context_len; Trace.context_len + 1; 64 ];
  (* Negative ids and out-of-range origins are poisoned, not fatal. *)
  Alcotest.(check bool) "all-ones context decodes to None" true
    (Trace.decode_context (Bytes.make Trace.context_len '\xff') = None);
  (* The frame-layer cap on absurd contexts fails cleanly (and the
     daemon answers an undecodable frame with a round-0 status the
     round-filtered coordinator ignores). *)
  (match Rpc.decode (Rpc.encode (Rpc.Trace_ctx { ctx = Bytes.make 300 'z' })) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "absurd context accepted");
  (* Seeded fuzz: random payloads and random bit flips of a valid
     encoding never raise anywhere in the stack. *)
  let rng = Drbg.of_string "trace-ctx-fuzz" in
  for _ = 1 to 500 do
    let len = Drbg.uniform ~rng 48 in
    let blob = Drbg.generate rng len in
    (match Rpc.decode (Rpc.encode (Rpc.Trace_ctx { ctx = blob })) with
    | Ok (Rpc.Trace_ctx { ctx }) ->
        ignore (Trace.decode_context ctx : Trace.context option)
    | Ok _ -> Alcotest.fail "trace ctx decoded to another message"
    | Error _ -> ());
    let flipped = Bytes.copy enc in
    let i = Drbg.uniform ~rng Trace.context_len in
    Bytes.set flipped i
      (Char.chr (Char.code (Bytes.get flipped i) lxor (1 lsl Drbg.uniform ~rng 8)));
    ignore (Trace.decode_context flipped : Trace.context option)
  done

(* The identity the byte accounting (and the benchmark's per-frame
   check) relies on: a part frame of k items is exactly 5 bytes longer
   than the batch accounting of k items — its [seq] and [last]. *)
let test_rpc_batch_bytes () =
  List.iter
    (fun k ->
      let onions = Array.init k (fun _ -> Bytes.make 416 'x') in
      let item_len = if k = 0 then 0 else 416 in
      let encoded =
        Rpc.encode
          (Rpc.Conv_batch_part { round = 1; seq = 0; last = true; onions })
      in
      Alcotest.(check int)
        (Printf.sprintf "conv part of %d = 5 + conv_batch_bytes" k)
        (5 + Rpc.conv_batch_bytes ~count:k ~item_len)
        (Bytes.length encoded);
      let encoded =
        Rpc.encode
          (Rpc.Dial_batch_part
             { round = 1; m = 4; seq = 3; last = false; onions })
      in
      Alcotest.(check int)
        (Printf.sprintf "dial part of %d = 5 + dial_batch_bytes" k)
        (5 + Rpc.dial_batch_bytes ~count:k ~item_len)
        (Bytes.length encoded);
      Alcotest.(check int) "dialing adds the u32 m"
        (Rpc.conv_batch_bytes ~count:k ~item_len + 4)
        (Rpc.dial_batch_bytes ~count:k ~item_len))
    [ 0; 1; 7 ]

let test_rpc_status_pp () =
  let st = { Rpc.round = 3; server = 1; stage = "conv-batch"; detail = "x" } in
  Alcotest.(check string)
    "status formats" "round 3: server 1 [conv-batch]: x"
    (Format.asprintf "%a" Rpc.pp_status st)

(* ------------------------------------------------------------------ *)
(* CDN                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cdn_caching () =
  let origin_calls = ref 0 in
  let fetch ~dial_round ~index =
    incr origin_calls;
    [ Bytes.of_string (Printf.sprintf "drop-%d-%d" dial_round index) ]
  in
  let cdn = Cdn.create ~edges:1 ~fetch () in
  let pk = Bytes.make 32 'a' in
  (* 50 clients on one edge fetch the same drop: origin hit once. *)
  for _ = 1 to 50 do
    match Cdn.fetch cdn ~client_pk:pk ~dial_round:1 ~index:0 with
    | [ b ] -> Alcotest.(check string) "content" "drop-1-0" (Bytes.to_string b)
    | _ -> Alcotest.fail "wrong contents"
  done;
  Alcotest.(check int) "origin touched once" 1 !origin_calls;
  let s = Cdn.stats cdn in
  Alcotest.(check int) "49 hits" 49 s.Cdn.edge_hits;
  Alcotest.(check int) "1 miss" 1 s.Cdn.edge_misses

let test_cdn_spread_and_eviction () =
  let fetch ~dial_round ~index =
    [ Bytes.of_string (Printf.sprintf "d%d.%d" dial_round index) ]
  in
  let cdn = Cdn.create ~edges:4 ~history:1 ~fetch () in
  let rng = Drbg.of_string "cdn" in
  (* Many clients across edges. *)
  for _ = 1 to 100 do
    ignore (Cdn.fetch cdn ~client_pk:(Drbg.generate rng 32) ~dial_round:1 ~index:0)
  done;
  let s = Cdn.stats cdn in
  (* At most one miss per edge. *)
  Alcotest.(check bool) "misses bounded by edges" true (s.Cdn.edge_misses <= 4);
  (* Advance far: old round evicted, returns []. *)
  ignore (Cdn.fetch cdn ~client_pk:(Drbg.generate rng 32) ~dial_round:5 ~index:0);
  Alcotest.(check (list string)) "evicted round empty" []
    (List.map Bytes.to_string
       (Cdn.fetch cdn ~client_pk:(Drbg.generate rng 32) ~dial_round:1 ~index:0))

let test_cdn_against_live_chain () =
  (* The CDN fronts a real chain's invitation store: clients get exactly
     what a direct fetch returns, while the origin serves each edge
     once. *)
  let net =
    Network.of_config
      Network.Config.(
        default |> with_seed "cdn-live"
        |> with_noise (Laplace.params ~mu:2. ~b:1.)
        |> with_dial_noise (Laplace.params ~mu:2. ~b:1.)
        |> with_noise_mode Noise.Deterministic)
  in
  let alice = Network.connect ~seed:"alice" net in
  let bob = Network.connect ~seed:"bob" net in
  Client.dial alice ~callee_pk:(Client.public_key bob);
  ignore (Network.run ~kind:Round.Dialing net);
  let chain = Network.chain net in
  let cdn =
    Cdn.create ~edges:2
      ~fetch:(fun ~dial_round:_ ~index -> Chain.fetch_invitations chain ~index)
      ()
  in
  let direct = Chain.fetch_invitations chain ~index:0 in
  let via_cdn =
    Cdn.fetch cdn ~client_pk:(Client.public_key bob) ~dial_round:1 ~index:0
  in
  Alcotest.(check int) "same count" (List.length direct) (List.length via_cdn);
  Alcotest.(check bool) "same bytes" true
    (List.for_all2 Bytes.equal direct via_cdn);
  (* Bob can scan the CDN copy. *)
  Alcotest.(check int) "bob finds his call" 1
    (List.length (Dialing.scan ~identity:(Client.identity bob) via_cdn))

(* Hand-assemble a [Conv_batch_part] frame whose batch header lies about
   its contents, bypassing the encoder's own checks. *)
let raw_conv_batch_frame ~count ~item_len ~body_len =
  let module Wire = Vuvuzela_mixnet.Wire in
  Wire.encode (fun w ->
      Wire.Writer.u32 w 0x56555655 (* magic *);
      Wire.Writer.u8 w 1 (* version *);
      Wire.Writer.u8 w 14 (* Conv_batch_part *);
      Wire.Writer.u64 w 1 (* round *);
      Wire.Writer.u32 w 0 (* seq *);
      Wire.Writer.u8 w 1 (* last *);
      Wire.Writer.u32 w count;
      Wire.Writer.u32 w item_len;
      Wire.Writer.raw w (Bytes.make body_len 'x'))

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"rpc fuzz never crashes" ~count:200
      (string_of_size (Gen.int_bound 100))
      (fun s ->
        match Rpc.decode (Bytes.of_string s) with Ok _ | Error _ -> true);
    Test.make ~name:"rpc read_batch rejects short or long bodies" ~count:100
      (triple (int_range 1 50) (int_range 1 64) (int_range 1 32))
      (fun (count, item_len, delta) ->
        (* The header promises count*item_len bytes; a body that is
           [delta] bytes short or long must be rejected, never
           resynchronized around. *)
        let expect = count * item_len in
        Result.is_error
          (Rpc.decode
             (raw_conv_batch_frame ~count ~item_len
                ~body_len:(max 0 (expect - delta))))
        && Result.is_error
             (Rpc.decode
                (raw_conv_batch_frame ~count ~item_len
                   ~body_len:(expect + delta))));
    Test.make ~name:"rpc read_batch rejects absurd counts" ~count:50
      (int_range 0 1_000_000)
      (fun extra ->
        Result.is_error
          (Rpc.decode
             (raw_conv_batch_frame
                ~count:((1 lsl 26) + 1 + extra)
                ~item_len:1 ~body_len:0)));
    Test.make ~name:"rpc ragged batches rejected at encode" ~count:50
      (pair (int_range 0 20) (int_range 0 20))
      (fun (la, lb) ->
        la = lb
        || (try
              ignore
                (Rpc.encode
                   (Rpc.Conv_batch_part
                      {
                        round = 1;
                        seq = 0;
                        last = true;
                        onions = [| Bytes.make la 'a'; Bytes.make lb 'b' |];
                      }));
              false
            with Vuvuzela_mixnet.Wire.Error _ -> true));
  ]

let suite =
  let tc = Alcotest.test_case in
  ( "infra",
    [
      tc "rpc roundtrips" `Quick test_rpc_roundtrips;
      tc "rpc rejections" `Quick test_rpc_rejections;
      tc "rpc fuzz" `Quick test_rpc_fuzz;
      tc "trace context wire fuzz" `Quick test_trace_ctx_wire;
      tc "rpc batch byte accounting" `Quick test_rpc_batch_bytes;
      tc "rpc status formatting" `Quick test_rpc_status_pp;
      tc "cdn caching" `Quick test_cdn_caching;
      tc "cdn spread and eviction" `Quick test_cdn_spread_and_eviction;
      tc "cdn against live chain" `Quick test_cdn_against_live_chain;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props )

(* CDN integrated into the deployment's dialing downloads. *)
let test_network_with_cdn () =
  let net =
    Network.of_config
      Network.Config.(
        default |> with_seed "net-cdn"
        |> with_noise (Laplace.params ~mu:2. ~b:1.)
        |> with_dial_noise (Laplace.params ~mu:2. ~b:1.)
        |> with_noise_mode Noise.Deterministic |> with_cdn_edges 2)
  in
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  let _extras =
    List.init 6 (fun i -> Network.connect ~seed:(Printf.sprintf "x%d" i) net)
  in
  Client.dial a ~callee_pk:(Client.public_key b);
  let events = (Network.run ~kind:Round.Dialing net).Network.events in
  Alcotest.(check int) "call delivered through cdn" 1 (List.length events);
  match Network.cdn_stats net with
  | Some s ->
      (* 8 clients fetched the (single) drop; origin served each edge at
         most once. *)
      Alcotest.(check int) "all fetches went through the cdn" 8
        (s.Cdn.edge_hits + s.Cdn.edge_misses);
      Alcotest.(check bool) "origin requests bounded by edges" true
        (s.Cdn.origin_requests <= 2)
  | None -> Alcotest.fail "cdn stats missing"

let suite =
  (fst suite, snd suite @ [ Alcotest.test_case "network with cdn" `Quick test_network_with_cdn ])
