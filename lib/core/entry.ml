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

   Intake streams: whenever [chunk] onions are buffered they are flushed
   to the sink (in slot order) and the buffer drains, so the peak
   buffered onion count is bounded by the chunk size, not the
   population.  The sink feeds the relay's part frames
   ([Rpc.Conv_batch_part]), which is why the chunking matches
   [Rpc.split_parts] exactly. *)

type submit_status = Accepted | Late of { next_round : int }

type 'id t = {
  round : int;
  chunk : int;
  sink : bytes array -> unit;
  mutable pending : ('id * bytes) list;  (** buffered requests, newest first *)
  mutable buffered : int;  (** |pending| *)
  mutable peak : int;  (** high-water mark of [buffered] *)
  mutable ids_rev : 'id list;  (** ids of flushed slots, newest first *)
  mutable closed : bool;
}

let create_streaming ?(round = 0) ~chunk ~sink () =
  if chunk < 1 then invalid_arg "Entry.create_streaming: chunk < 1";
  {
    round;
    chunk;
    sink;
    pending = [];
    buffered = 0;
    peak = 0;
    ids_rev = [];
    closed = false;
  }

(* Drain the buffer to the sink as one slot-ordered chunk. *)
let flush t =
  if t.buffered > 0 then begin
    let in_order = List.rev t.pending in
    t.sink (Array.of_list (List.map snd in_order));
    t.ids_rev <- List.rev_append (List.map fst in_order) t.ids_rev;
    t.pending <- [];
    t.buffered <- 0
  end

let submit t id request =
  if t.closed then Late { next_round = t.round + 1 }
  else begin
    t.pending <- (id, request) :: t.pending;
    t.buffered <- t.buffered + 1;
    if t.buffered > t.peak then t.peak <- t.buffered;
    if t.buffered >= t.chunk then flush t;
    Accepted
  end

let peak_buffered t = t.peak

(* Close the round: flush the tail chunk and return the slot → client
   map (the requests already went to the sink). *)
let close_stream t =
  flush t;
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
