(* The transport's framing layer, attacked from the byte-stream side:
   TCP delivers frames in arbitrary fragments, so the decoder must
   reassemble exactly — across 1-byte drips, length prefixes split at
   every offset, many frames coalesced into one read — and reject
   oversized or truncated input with a typed error, never an allocation
   proportional to attacker-chosen lengths. *)

open Vuvuzela_crypto
module Frame = Vuvuzela_transport.Frame
module Addr = Vuvuzela_transport.Addr
module Wire = Vuvuzela_mixnet.Wire
open Vuvuzela

let drain decoder =
  let rec go acc =
    match Frame.next decoder with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error e -> Error e
  in
  go []

let feed_all decoder b = Frame.feed decoder b ~off:0 ~len:(Bytes.length b)

(* Round-trip one frame through every split point of its encoding: the
   length prefix itself lands on a fragment boundary at offsets 1..3. *)
let test_split_everywhere () =
  let payload = Bytes.of_string "split-me-anywhere" in
  let wire = Frame.encode payload in
  for cut = 0 to Bytes.length wire do
    let d = Frame.decoder () in
    Frame.feed d wire ~off:0 ~len:cut;
    Frame.feed d wire ~off:cut ~len:(Bytes.length wire - cut);
    match drain d with
    | Ok [ p ] ->
        Alcotest.(check bytes)
          (Printf.sprintf "cut at %d" cut)
          payload p
    | Ok l ->
        Alcotest.failf "cut at %d: %d frames instead of 1" cut (List.length l)
    | Error e -> Alcotest.failf "cut at %d: %s" cut e
  done

(* Seeded fuzz: random frame sequences delivered under adversarial
   chunkings (1-byte drips, random fragments, everything coalesced)
   must reassemble to exactly the sent sequence. *)
let test_fuzz_reassembly () =
  let rng = Drbg.of_string "frame-fuzz" in
  for trial = 1 to 40 do
    let frames =
      List.init
        (1 + Drbg.uniform ~rng 6)
        (fun _ -> Drbg.generate rng (Drbg.uniform ~rng 2048))
    in
    let wire = Bytes.concat Bytes.empty (List.map Frame.encode frames) in
    let chunking = Drbg.uniform ~rng 3 in
    let d = Frame.decoder () in
    let received = ref [] in
    let deliver off len =
      Frame.feed d wire ~off ~len;
      match drain d with
      | Ok ps -> received := !received @ ps
      | Error e -> Alcotest.failf "trial %d: decoder rejected: %s" trial e
    in
    (match chunking with
    | 0 ->
        (* 1-byte drip: the pathological slow sender *)
        for i = 0 to Bytes.length wire - 1 do
          deliver i 1
        done
    | 1 ->
        (* random fragments *)
        let off = ref 0 in
        while !off < Bytes.length wire do
          let len =
            min (1 + Drbg.uniform ~rng 97) (Bytes.length wire - !off)
          in
          deliver !off len;
          off := !off + len
        done
    | _ -> deliver 0 (Bytes.length wire));
    Alcotest.(check int)
      (Printf.sprintf "trial %d: frame count" trial)
      (List.length frames) (List.length !received);
    List.iter2
      (fun sent got ->
        Alcotest.(check bytes)
          (Printf.sprintf "trial %d: payload" trial)
          sent got)
      frames !received
  done

(* A truncated tail is silence, not an error: the decoder waits for the
   rest (the connection teardown is what reports it). *)
let test_truncated_tail () =
  let wire = Frame.encode (Bytes.of_string "never finishes") in
  let d = Frame.decoder () in
  Frame.feed d wire ~off:0 ~len:(Bytes.length wire - 3);
  (match Frame.next d with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "truncated frame decoded"
  | Error e -> Alcotest.failf "truncated frame rejected: %s" e);
  Alcotest.(check int)
    "partial bytes buffered"
    (Bytes.length wire - 3)
    (Frame.buffered d)

(* An oversized length prefix is rejected as soon as the header is
   readable — no allocation of attacker-chosen size — and poisons the
   decoder for good (the stream has lost sync). *)
let test_oversized_prefix_rejected () =
  let evil = Bytes.create 4 in
  Bytes.set_int32_le evil 0 (Int32.of_int (Frame.max_payload + 1));
  let d = Frame.decoder () in
  feed_all d evil;
  (match Frame.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized prefix accepted");
  (* sticky: a well-formed frame after the poison still errors *)
  feed_all d (Frame.encode (Bytes.of_string "too late"));
  match Frame.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned decoder recovered"

let test_encode_oversized_raises () =
  match Frame.encode (Bytes.create (Frame.max_payload + 1)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized encode accepted"

(* The same hard limit guards the Wire reader (satellite: no unbounded
   Bytes.create from a hostile length prefix). *)
let test_wire_limit () =
  let w = Wire.Writer.create () in
  Wire.Writer.u32 w (Wire.max_frame_len + 1);
  let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
  match Wire.Reader.bytes_var r with
  | exception Wire.Error _ -> ()
  | _ -> Alcotest.fail "Wire accepted an oversized length prefix"

(* ... and the Rpc batch reader: a forged count × item_len that
   multiplies past the limit is rejected before allocation. *)
let test_rpc_batch_limit () =
  let w = Wire.Writer.create () in
  Wire.Writer.u32 w 0x56555655;
  (* magic *)
  Wire.Writer.u8 w 1;
  (* version *)
  Wire.Writer.u8 w 14;
  (* Conv_batch_part tag *)
  Wire.Writer.u64 w 1;
  (* round *)
  Wire.Writer.u32 w 0;
  (* seq *)
  Wire.Writer.u8 w 1;
  (* last *)
  Wire.Writer.u32 w 70_000;
  (* count *)
  Wire.Writer.u32 w 70_000;
  (* item_len: 70000 × 70000 ≫ max_frame_len *)
  match Rpc.decode (Wire.Writer.contents w) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Rpc accepted an absurd batch header"

let test_addr_parse () =
  (match Addr.parse "127.0.0.1:7000" with
  | Ok a -> Alcotest.(check string) "ip round-trip" "127.0.0.1:7000" (Addr.to_string a)
  | Error e -> Alcotest.fail e);
  (match Addr.parse ":7000" with
  | Ok a -> Alcotest.(check int) "bare port" 7000 (Addr.port_of a)
  | Error e -> Alcotest.fail e);
  match Addr.parse "no-port" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an address without a port"

let suite =
  ( "transport",
    [
      Alcotest.test_case "frame split at every offset" `Quick
        test_split_everywhere;
      Alcotest.test_case "fuzz reassembly under adversarial chunking" `Quick
        test_fuzz_reassembly;
      Alcotest.test_case "truncated tail waits, buffered" `Quick
        test_truncated_tail;
      Alcotest.test_case "oversized prefix rejected, decoder poisoned" `Quick
        test_oversized_prefix_rejected;
      Alcotest.test_case "oversized encode raises" `Quick
        test_encode_oversized_raises;
      Alcotest.test_case "Wire length limit" `Quick test_wire_limit;
      Alcotest.test_case "Rpc batch header limit" `Quick test_rpc_batch_limit;
      Alcotest.test_case "address parsing" `Quick test_addr_parse;
    ] )
