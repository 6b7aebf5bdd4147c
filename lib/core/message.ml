(* Conversation message codec: the fixed-size plaintext that rides inside
   a dead-drop exchange, and the transport header used by the client's
   retransmission machinery (§3.1: "Vuvuzela deals with these issues
   through retransmission at a higher level (in the client itself)").

   Plaintext layout (always exactly [Types.message_plain_len] bytes):

     kind : u8      0 = empty (cover / keepalive), 1 = data
     seq  : u32     sender's sequence number (data only)
     ack  : u32     highest in-order sequence received from the peer
     len  : u16     number of meaningful text bytes
     text : 229 B   user text, zero-padded

   Every user, active or idle, sends a message every round; [Empty]
   messages make the padding explicit.  After AEAD sealing, empty and
   data messages are indistinguishable on the wire. *)

open Vuvuzela_crypto
open Vuvuzela_mixnet

type t =
  | Empty of { ack : int }
  | Data of { seq : int; ack : int; text : string }

let equal a b =
  match (a, b) with
  | Empty { ack = a1 }, Empty { ack = a2 } -> a1 = a2
  | Data d1, Data d2 ->
      d1.seq = d2.seq && d1.ack = d2.ack && String.equal d1.text d2.text
  | _ -> false

let encode t =
  let kind, seq, ack, text =
    match t with
    | Empty { ack } -> (0, 0, ack, "")
    | Data { seq; ack; text } -> (1, seq, ack, text)
  in
  if String.length text > Types.text_capacity then
    invalid_arg
      (Printf.sprintf "Message.encode: text exceeds %d bytes"
         Types.text_capacity);
  let body =
    Wire.encode (fun w ->
        Wire.Writer.u8 w kind;
        Wire.Writer.u32 w seq;
        Wire.Writer.u32 w ack;
        Wire.Writer.u16 w (String.length text);
        Wire.Writer.raw w (Bytes.of_string text))
  in
  Bytes_util.pad_to Types.message_plain_len body

let decode b =
  if Bytes.length b <> Types.message_plain_len then
    Error
      (Printf.sprintf "Message.decode: expected %d bytes, got %d"
         Types.message_plain_len (Bytes.length b))
  else
    try
      let r = Wire.Reader.of_bytes b in
      let kind = Wire.Reader.u8 r in
      let seq = Wire.Reader.u32 r in
      let ack = Wire.Reader.u32 r in
      let len = Wire.Reader.u16 r in
      if len > Types.text_capacity then Error "Message.decode: bad length"
      else begin
        let text = Bytes.to_string (Wire.Reader.bytes_fixed r len) in
        match kind with
        | 0 -> Ok (Empty { ack })
        | 1 -> Ok (Data { seq; ack; text })
        | k -> Error (Printf.sprintf "Message.decode: unknown kind %d" k)
      end
    with Wire.Error msg -> Error msg

(* Sealing. Both conversation partners share one secret, but encrypting
   two different plaintexts under the same (key, nonce) would be
   catastrophic, so keys are direction-separated: the party whose public
   key sorts lower uses [key_lo] to send, the other uses [key_hi]
   (a documented deviation from Algorithm 1 as printed; see DESIGN.md). *)

type keys = { send : bytes; recv : bytes }

let direction_keys ~base ~my_pk ~their_pk =
  let okm = Hkdf.derive ~ikm:base ~info:(Bytes.of_string "vuvuzela-convo-v1") 64 in
  let lo = Bytes.sub okm 0 32 and hi = Bytes.sub okm 32 32 in
  if Types.compare_pk my_pk their_pk <= 0 then { send = lo; recv = hi }
  else { send = hi; recv = lo }

let msg_nonce ~round = Aead.nonce_of ~domain:0x564d ~counter:round

let seal ~keys ~round t =
  let plain = encode t in
  let out = Bytes.create Types.sealed_message_len in
  Aead.seal_into ~key:keys.send
    ~nonce:(msg_nonce ~round)
    ~src:plain ~src_off:0 ~len:Types.message_plain_len ~dst:out ~dst_off:0 ();
  out

let open_ ~keys ~round sealed =
  if Bytes.length sealed <> Types.sealed_message_len then None
  else begin
    let plain = Bytes.create Types.message_plain_len in
    if
      Aead.open_into ~key:keys.recv
        ~nonce:(msg_nonce ~round)
        ~src:sealed ~src_off:0 ~len:Types.sealed_message_len ~dst:plain
        ~dst_off:0 ()
    then match decode plain with Ok m -> Some m | Error _ -> None
    else None
  end
