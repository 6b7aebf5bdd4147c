(* The entry server (§7): an untrusted multiplexer that batches client
   requests into a round for the chain and routes results back.

   It learns only which clients are connected — which the threat model
   already concedes — and cannot read or alter onions undetected (any
   tampering makes the first server's AEAD open fail).

   Admission: the collector is tied to a round number.  Once the round
   closes, a straggler is not a protocol error any more — its onion is
   keyed to a round that is already sealed, so the only sound move is to
   tell the sender which round to re-wrap for.  [submit] therefore
   returns a typed status instead of raising.

   Two intake modes:
   - materializing (seed behavior): every onion is buffered until
     [close_round] freezes the slot-ordered batch — peak memory grows
     with the population;
   - streaming (scale plane): [create_streaming] attaches a sink and a
     chunk size; whenever [chunk] onions are buffered they are flushed
     to the sink (in slot order) and the buffer drains, so the peak
     buffered onion count is bounded by the chunk size, not the
     population.  The sink feeds the relay's part frames
     ([Rpc.Conv_batch_part]), which is why the chunking matches
     [Rpc.split_parts] exactly. *)

type submit_status = Accepted | Late of { next_round : int }

type 'id stream = { chunk : int; sink : bytes array -> unit }

type 'id t = {
  round : int;
  mutable pending : ('id * bytes) list;  (** buffered requests, newest first *)
  mutable count : int;  (** admitted requests, O(1) [size] *)
  mutable buffered : int;  (** |pending| *)
  mutable peak : int;  (** high-water mark of [buffered] *)
  stream : 'id stream option;
  mutable ids_rev : 'id list;  (** streaming mode: ids of flushed slots *)
  mutable closed : bool;
  mutable late : 'id list;  (** stragglers seen after close, newest first *)
}

let make ?(round = 0) stream =
  {
    round;
    pending = [];
    count = 0;
    buffered = 0;
    peak = 0;
    stream;
    ids_rev = [];
    closed = false;
    late = [];
  }

let create ?round () = make ?round None

let create_streaming ?round ~chunk ~sink () =
  if chunk < 1 then invalid_arg "Entry.create_streaming: chunk < 1";
  make ?round (Some { chunk; sink })

let round t = t.round

(* Drain the buffer to the sink as one slot-ordered chunk. *)
let flush t sink =
  if t.buffered > 0 then begin
    let in_order = List.rev t.pending in
    sink (Array.of_list (List.map snd in_order));
    t.ids_rev <- List.rev_append (List.map fst in_order) t.ids_rev;
    t.pending <- [];
    t.buffered <- 0
  end

let submit t id request =
  if t.closed then begin
    t.late <- id :: t.late;
    Late { next_round = t.round + 1 }
  end
  else begin
    t.pending <- (id, request) :: t.pending;
    t.count <- t.count + 1;
    t.buffered <- t.buffered + 1;
    if t.buffered > t.peak then t.peak <- t.buffered;
    (match t.stream with
    | Some { chunk; sink } when t.buffered >= chunk -> flush t sink
    | _ -> ());
    Accepted
  end

let size t = t.count
let late t = List.rev t.late
let peak_buffered t = t.peak

(* Freeze a materializing round: slot-ordered requests plus the
   slot → client map. *)
let close_round t =
  if t.stream <> None then
    invalid_arg "Entry.close_round: streaming collector (use close_stream)";
  t.closed <- true;
  let in_order = List.rev t.pending in
  let requests = Array.of_list (List.map snd in_order) in
  let ids = Array.of_list (List.map fst in_order) in
  (requests, ids)

(* Freeze a streaming round: flush the tail chunk and return the
   slot → client map (the requests already went to the sink). *)
let close_stream t =
  match t.stream with
  | None -> invalid_arg "Entry.close_stream: materializing collector"
  | Some { sink; _ } ->
      flush t sink;
      t.closed <- true;
      Array.of_list (List.rev t.ids_rev)

(* Ingress policy, shared by every deployment so all of them put the
   same bytes on the wire: every request of a round has the size a full
   onion of its kind has, and a wrong-sized one is replaced with random
   bytes of that size.  Its slot (and reply) survive; the garbage fails
   authentication at the first server and earns a dummy reply. *)
let request_len ~chain_len ~dial_kind (kind : Round.kind) =
  Vuvuzela_mixnet.Onion.request_size ~chain_len
    ~payload_len:
      (match kind with
      | Round.Conversation -> Types.exchange_payload_len
      | Round.Dialing -> Dialing.payload_len dial_kind)

let normalize ~expected requests =
  Array.map
    (fun r ->
      if Bytes.length r = expected then r
      else Vuvuzela_crypto.Drbg.bytes expected)
    requests

(* Route results back: pairs each slot's result with its client. *)
let demux ~ids results =
  if Array.length ids <> Array.length results then
    invalid_arg "Entry.demux: result batch size mismatch";
  Array.to_list (Array.map2 (fun id r -> (id, r)) ids results)
