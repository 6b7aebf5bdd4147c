(* The inter-server wire protocol: the framed messages that cross the
   links between the entry server and the chain (§3.1's round
   coordination and §7's architecture).

   The in-process Network could pass OCaml values directly; routing every
   batch through this codec instead keeps the implementation honest about
   what actually crosses the wire — sizes, framing, and versioning — and
   gives the cost model its byte counts.

   Frame layout:  magic (u32) | version (u8) | tag (u8) | body

   Batches carry a fixed per-item length so a malformed item cannot
   desynchronize the stream.  A batch only ever crosses a link as
   [*_batch_part] frames: a relay that does not pipeline sends one part
   holding the whole batch. *)

open Vuvuzela_mixnet

let magic = 0x56555655 (* "VUVU" *)
let version = 1

type status = {
  round : int;
  server : int;  (** chain position reporting the failure *)
  stage : string;  (** e.g. ["conv-batch"], ["dial-results"] *)
  detail : string;
}

type message =
  | Conv_results of { round : int; replies : bytes array }
      (** backward pass *)
  | Dial_results of { round : int; replies : bytes array }
  | Fetch_drop of { dial_round : int; index : int }
      (** client → last server: download an invitation drop *)
  | Drop_contents of { dial_round : int; index : int; invitations : bytes list }
  | Status of status
      (** error frame: a server rejected a batch (framing, size, or
          protocol violation); replaces the results it cannot produce *)
  | Hello of { index : int }
      (** transport handshake, dialer → listener: who is connecting
          (chain position; [-1] is the coordinator/entry) *)
  | Chain_info of { pks : bytes list }
      (** handshake reply, listener → dialer: the public keys of the
          listener and everything downstream of it, in chain order —
          how key material propagates up a multi-process chain *)
  | Abort of { round : int; dialing : bool }
      (** coordinator → chain (forwarded hop to hop): discard this
          round's state; the supervisor is about to retry *)
  | Bye  (** graceful shutdown, forwarded down the chain *)
  | Conv_batch_part of {
      round : int;
      seq : int;
      last : bool;
      onions : bytes array;
    }
      (** one contiguous chunk of a conversation batch (entry → server
          0, or server i → server i+1), sent as soon as the upstream hop
          has produced it so the receiver peels while the rest of the
          batch is still being computed.  Parts arrive in [seq] order on
          a single ordered link; the part with [last = true] closes the
          batch. *)
  | Dial_batch_part of {
      round : int;
      m : int;
      seq : int;
      last : bool;
      onions : bytes array;
    }  (** one chunk of a dialing batch; [m] repeats on every part *)
  | Trace_ctx of { ctx : bytes }
      (** observability control frame, sent immediately before a batch:
          an opaque [Trace.context] blob naming the sender's open span so
          the receiver's hop span can parent into it across the process
          boundary.  Tolerated-if-absent, ignored-if-malformed: a peer
          that never sends it, or sends garbage, costs nothing but the
          cross-process parent link. *)

let tag_of = function
  | Conv_results _ -> 4
  | Dial_results _ -> 6
  | Fetch_drop _ -> 7
  | Drop_contents _ -> 8
  | Status _ -> 9
  | Hello _ -> 10
  | Chain_info _ -> 11
  | Abort _ -> 12
  | Bye -> 13
  | Conv_batch_part _ -> 14
  | Dial_batch_part _ -> 15
  | Trace_ctx _ -> 16

(* Uniform-size batch: u32 count, u32 item length, then count items.
   No real batch has empty items, and a count of them would cost the
   reader an array that no frame bytes pay for, so neither side accepts
   one. *)
let write_batch w (items : bytes array) =
  let item_len =
    if Array.length items = 0 then 0 else Bytes.length items.(0)
  in
  Array.iter
    (fun b ->
      if Bytes.length b <> item_len then
        raise (Wire.Error "Rpc.write_batch: ragged batch"))
    items;
  if Array.length items > 0 && item_len = 0 then
    raise (Wire.Error "Rpc.write_batch: empty items");
  Wire.Writer.u32 w (Array.length items);
  Wire.Writer.u32 w item_len;
  Array.iter (fun b -> Wire.Writer.raw w b) items

let read_batch r =
  let count = Wire.Reader.u32 r in
  let item_len = Wire.Reader.u32 r in
  if count > 1 lsl 26 then raise (Wire.Error "Rpc.read_batch: absurd count");
  if count > 0 && item_len = 0 then
    raise (Wire.Error "Rpc.read_batch: empty items");
  (* The whole batch obeys the same ceiling as a frame, so a hostile
     (count, item_len) pair is rejected before any allocation. *)
  if item_len > Wire.max_frame_len || count * item_len > Wire.max_frame_len
  then
    raise
      (Wire.Error
         (Printf.sprintf "Rpc.read_batch: %d x %d B exceeds max frame (%d)"
            count item_len Wire.max_frame_len));
  Array.init count (fun _ -> Wire.Reader.bytes_fixed r item_len)

let encode msg =
  Wire.encode (fun w ->
      Wire.Writer.u32 w magic;
      Wire.Writer.u8 w version;
      Wire.Writer.u8 w (tag_of msg);
      match msg with
      | Conv_results { round; replies } ->
          Wire.Writer.u64 w round;
          write_batch w replies
      | Dial_results { round; replies } ->
          Wire.Writer.u64 w round;
          write_batch w replies
      | Fetch_drop { dial_round; index } ->
          Wire.Writer.u64 w dial_round;
          Wire.Writer.u32 w index
      | Drop_contents { dial_round; index; invitations } ->
          Wire.Writer.u64 w dial_round;
          Wire.Writer.u32 w index;
          Wire.Writer.u32 w (List.length invitations);
          List.iter (fun inv -> Wire.Writer.bytes_var w inv) invitations
      | Status { round; server; stage; detail } ->
          Wire.Writer.u64 w round;
          Wire.Writer.u32 w server;
          Wire.Writer.bytes_var w (Bytes.of_string stage);
          Wire.Writer.bytes_var w (Bytes.of_string detail)
      | Hello { index } ->
          (* Biased by one so the coordinator's -1 fits a u32. *)
          Wire.Writer.u32 w (index + 1)
      | Chain_info { pks } ->
          Wire.Writer.u32 w (List.length pks);
          List.iter (fun pk -> Wire.Writer.bytes_var w pk) pks
      | Abort { round; dialing } ->
          Wire.Writer.u64 w round;
          Wire.Writer.u8 w (if dialing then 1 else 0)
      | Bye -> ()
      | Conv_batch_part { round; seq; last; onions } ->
          Wire.Writer.u64 w round;
          Wire.Writer.u32 w seq;
          Wire.Writer.u8 w (if last then 1 else 0);
          write_batch w onions
      | Dial_batch_part { round; m; seq; last; onions } ->
          Wire.Writer.u64 w round;
          Wire.Writer.u32 w m;
          Wire.Writer.u32 w seq;
          Wire.Writer.u8 w (if last then 1 else 0);
          write_batch w onions
      | Trace_ctx { ctx } -> Wire.Writer.bytes_var w ctx)

let read_seq r =
  let seq = Wire.Reader.u32 r in
  if seq > 1 lsl 26 then raise (Wire.Error "Rpc.decode: absurd part seq");
  seq

let decode b =
  Wire.decode
    (fun r ->
      if Wire.Reader.u32 r <> magic then
        raise (Wire.Error "Rpc.decode: bad magic");
      let v = Wire.Reader.u8 r in
      if v <> version then
        raise (Wire.Error (Printf.sprintf "Rpc.decode: version %d" v));
      match Wire.Reader.u8 r with
      | (1 | 2 | 3 | 5) as t ->
          (* Retired frames (the round announcements, which no tier
             sent, and the whole-batch frames); the tags stay
             reserved. *)
          raise (Wire.Error (Printf.sprintf "Rpc.decode: retired tag %d" t))
      | 4 ->
          let round = Wire.Reader.u64 r in
          Conv_results { round; replies = read_batch r }
      | 6 ->
          let round = Wire.Reader.u64 r in
          Dial_results { round; replies = read_batch r }
      | 7 ->
          let dial_round = Wire.Reader.u64 r in
          let index = Wire.Reader.u32 r in
          Fetch_drop { dial_round; index }
      | 8 ->
          let dial_round = Wire.Reader.u64 r in
          let index = Wire.Reader.u32 r in
          let n = Wire.Reader.u32 r in
          if n > 1 lsl 26 then raise (Wire.Error "Rpc.decode: absurd count");
          let invitations =
            List.init n (fun _ -> Wire.Reader.bytes_var r)
          in
          Drop_contents { dial_round; index; invitations }
      | 9 ->
          let round = Wire.Reader.u64 r in
          let server = Wire.Reader.u32 r in
          let stage = Bytes.to_string (Wire.Reader.bytes_var r) in
          let detail = Bytes.to_string (Wire.Reader.bytes_var r) in
          Status { round; server; stage; detail }
      | 10 -> Hello { index = Wire.Reader.u32 r - 1 }
      | 11 ->
          let n = Wire.Reader.u32 r in
          if n > 1024 then raise (Wire.Error "Rpc.decode: absurd chain");
          Chain_info { pks = List.init n (fun _ -> Wire.Reader.bytes_var r) }
      | 12 ->
          let round = Wire.Reader.u64 r in
          let dialing = Wire.Reader.u8 r <> 0 in
          Abort { round; dialing }
      | 13 -> Bye
      | 14 ->
          let round = Wire.Reader.u64 r in
          let seq = read_seq r in
          let last = Wire.Reader.u8 r <> 0 in
          Conv_batch_part { round; seq; last; onions = read_batch r }
      | 15 ->
          let round = Wire.Reader.u64 r in
          let m = Wire.Reader.u32 r in
          let seq = read_seq r in
          let last = Wire.Reader.u8 r <> 0 in
          Dial_batch_part { round; m; seq; last; onions = read_batch r }
      | 16 ->
          (* The blob is bounded but otherwise uninterpreted here;
             [Trace.decode_context] decides whether it is usable. *)
          let ctx = Wire.Reader.bytes_var r in
          if Bytes.length ctx > 256 then
            raise (Wire.Error "Rpc.decode: absurd trace context");
          Trace_ctx { ctx }
      | t -> raise (Wire.Error (Printf.sprintf "Rpc.decode: unknown tag %d" t)))
    b

(* The frames of a round of either kind, so relays are written once. *)
let part (kind : Round.kind) ~round ~m ~seq ~last onions =
  match kind with
  | Round.Conversation -> Conv_batch_part { round; seq; last; onions }
  | Round.Dialing -> Dial_batch_part { round; m; seq; last; onions }

let results (kind : Round.kind) ~round replies =
  match kind with
  | Round.Conversation -> Conv_results { round; replies }
  | Round.Dialing -> Dial_results { round; replies }

let stage (kind : Round.kind) what =
  (match kind with Round.Conversation -> "conv-" | Round.Dialing -> "dial-")
  ^ what

let part_header = function
  | Conv_batch_part { round; seq; _ } -> Some (Round.Conversation, round, 0, seq)
  | Dial_batch_part { round; m; seq; _ } -> Some (Round.Dialing, round, m, seq)
  | _ -> None

(* Split a logical batch into the contiguous slices a relay ships as
   [*_batch_part] frames.  An empty batch is one empty part so a
   [last = true] frame always closes the round. *)
let split_parts ~chunk onions =
  let n = Array.length onions in
  if n = 0 then [| onions |]
  else
    let chunk = max 1 chunk in
    let parts = (n + chunk - 1) / chunk in
    Array.init parts (fun p ->
        Array.sub onions (p * chunk) (min chunk (n - (p * chunk))))

(* The one sender every link uses.  Parts leave as soon as they exist,
   with one part of lookahead so the final one carries [last = true];
   pushing nothing still closes the batch with one empty [last] part. *)
let send_parts ?chunk ~emit fill =
  let held = ref None and seq = ref 0 in
  let push part =
    Option.iter
      (fun prev ->
        emit ~seq:!seq ~last:false prev;
        incr seq)
      !held;
    held := Some part
  in
  fill (fun onions ->
      match chunk with
      | None -> push onions
      | Some chunk -> Array.iter push (split_parts ~chunk onions));
  emit ~seq:!seq ~last:true (Option.value !held ~default:[||])

(* Byte size of a batch on the wire without building it (used by the
   cost model's bandwidth accounting and the round reports): frame
   header, round and batch header plus the items.  The part frame that
   carries it adds its u32 [seq] and u8 [last]. *)
let conv_batch_bytes ~count ~item_len = 4 + 1 + 1 + 8 + 4 + 4 + (count * item_len)

(* A dialing batch additionally carries the u32 drop count [m]. *)
let dial_batch_bytes ~count ~item_len = conv_batch_bytes ~count ~item_len + 4

let pp_status ppf { round; server; stage; detail } =
  Format.fprintf ppf "round %d: server %d [%s]: %s" round server stage detail

(* Well-known coordinator statuses.  These never cross a link (there is
   nobody left to send them to), but they share the [status] type so the
   round supervisor and the reports treat every abort reason
   uniformly. *)

let shutdown_stage = "chain-shutdown"
let deadline_stage = "deadline"
let transport_stage = "transport"

let transport_error ~round ~server ~detail =
  { round; server; stage = transport_stage; detail }

let chain_shutdown ~round =
  {
    round;
    server = 0;
    stage = shutdown_stage;
    detail = "round attempted after Chain.shutdown";
  }

let deadline_exceeded ~round ~deadline_ms =
  {
    round;
    server = 0;
    stage = deadline_stage;
    detail =
      (match deadline_ms with
      | Some d -> Printf.sprintf "exceeded %.0f ms round deadline" d
      | None -> "no reply, and the chain is idle");
  }

let is_chain_shutdown st = st.stage = shutdown_stage

(* Unlike the statuses above, a key change does cross links: the daemon
   that saw its successor's handshake change answers upstream with it. *)
let key_change_stage = "key-change"

let key_change ~round ~server ~detail =
  { round; server; stage = key_change_stage; detail }

let is_key_change st = st.stage = key_change_stage

let changed_keys ~first ~in_use handshake =
  let rec go i = function
    | a :: rest, b :: rest' ->
        if Bytes.equal a b then go (i + 1) (rest, rest')
        else
          Some
            (Printf.sprintf "server %d's public key changed on reconnect" i)
    | [], [] -> None
    | _ ->
        Some
          (Printf.sprintf "chain length changed on reconnect (%d -> %d servers)"
             (first + List.length in_use)
             (first + List.length handshake))
  in
  go first (in_use, handshake)

(* A shut-down chain stays shut down, and a changed key stays changed
   until the deployment reconnects and clients wrap to the new one;
   everything else (framing faults, crashes, deadline misses) is
   transient under the paper's model — a crashed server restarts, so a
   fresh attempt can succeed. *)
let retryable st = not (is_chain_shutdown st || is_key_change st)
