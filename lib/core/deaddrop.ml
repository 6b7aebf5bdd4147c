(* Dead-drop stores kept by the last server in the chain.

   Conversation drops (§4): ephemeral per round; each holds at most the
   requests of one honest pair.  The store matches up accesses: the first
   two requests to a drop exchange their sealed messages; a lone request
   gets the empty (all-zero) result; extra adversarial requests to an
   already-paired drop also get the empty result (footnote 6 of the
   paper: honest collisions are negligible, so >2 accesses only arise
   from adversarial duplication, and those learn nothing new).

   Only the first two accesses ever matter to [resolve], so each drop
   stores exactly those plus an access count; the count transitions also
   maintain the (m1, m2, m_more) histogram incrementally, making
   [histogram] O(shards) instead of a List.length walk per drop.  The seed
   implementation survives verbatim as [Deaddrop_ref] (test/oracles), the
   differential oracle for [test/prop/prop_deaddrop.ml].

   Invitation drops (§5): a small fixed number m of large drops, each
   accumulating all invitations (real + noise) for the public keys that
   hash to it. *)

(* One dead drop.  [a2_*] are meaningful only when [count >= 2]. *)
type cell = {
  a1_slot : int;
  a1_sealed : bytes;
  mutable a2_slot : int;
  mutable a2_sealed : bytes;
  mutable count : int;
}

type shard = {
  drops : (string, cell) Hashtbl.t;
  mutable total_accesses : int;
  mutable m1 : int;
  mutable m2 : int;
  mutable m_more : int;
}

(* Drops are routed to shards by drop-id prefix.  Drop ids are HMAC
   outputs (uniform), so the prefix balances shards without touching
   the histogram semantics: a drop's accesses all share the id, hence
   the shard, so pair-matching inside each shard sees exactly the
   accesses one table would.  Each batch slot belongs to exactly one
   drop and therefore exactly one shard, which makes the per-shard
   [resolve] writes into the shared results array disjoint: safe to fan
   over the domain pool and bit-identical at any shard count. *)
type t = shard array

let create ?(shards = 1) () =
  Array.init (max 1 shards) (fun _ ->
      { drops = Hashtbl.create 1024; total_accesses = 0; m1 = 0; m2 = 0;
        m_more = 0 })

let clear (t : t) =
  Array.iter
    (fun s ->
      Hashtbl.reset s.drops;
      s.total_accesses <- 0;
      s.m1 <- 0;
      s.m2 <- 0;
      s.m_more <- 0)
    t

(* Big-endian prefix of the drop id mod shard count; ids are at least
   two bytes ({!Types.drop_id_len} = 16). *)
let shard_of (t : t) drop_id =
  let prefix =
    (Char.code (Bytes.get drop_id 0) lsl 8) lor Char.code (Bytes.get drop_id 1)
  in
  t.(prefix mod Array.length t)

let no_sealed = Bytes.create 0

(* Record one exchange request.  Each batch slot must be put at most
   once per round (the server enforces this upstream). *)
let put t ~slot ~drop_id ~sealed =
  let s = shard_of t drop_id in
  let key = Bytes.to_string drop_id in
  (match Hashtbl.find_opt s.drops key with
  | None ->
      Hashtbl.add s.drops key
        { a1_slot = slot; a1_sealed = sealed; a2_slot = -1;
          a2_sealed = no_sealed; count = 1 };
      s.m1 <- s.m1 + 1
  | Some c ->
      (match c.count with
      | 1 ->
          c.a2_slot <- slot;
          c.a2_sealed <- sealed;
          s.m1 <- s.m1 - 1;
          s.m2 <- s.m2 + 1
      | 2 ->
          s.m2 <- s.m2 - 1;
          s.m_more <- s.m_more + 1
      | _ -> ());
      c.count <- c.count + 1);
  s.total_accesses <- s.total_accesses + 1

let total_accesses (t : t) =
  Array.fold_left (fun acc s -> acc + s.total_accesses) 0 t

let empty_result = Bytes.make Types.exchange_result_len '\000'

(* Swap the first two accesses of every paired drop into [results].
   Slots not written keep whatever [results] was prefilled with. *)
let resolve_into drops results =
  Hashtbl.iter
    (fun _ c ->
      if c.count >= 2 then begin
        (* First two accesses exchange contents; any later (necessarily
           adversarial) duplicates keep the empty result. *)
        results.(c.a1_slot) <- c.a2_sealed;
        results.(c.a2_slot) <- c.a1_sealed
      end)
    drops

(* Resolve all drops: returns the per-slot results.  [n_slots] is the
   batch size; every slot receives exactly [Types.exchange_result_len]
   bytes.  Every slot the pair-matching left untouched gets its own
   fresh all-zero buffer: [empty_result] itself must never escape, or a
   caller mutating one lone slot's result would corrupt every other's. *)
let resolve ?pool (t : t) ~n_slots =
  let results = Array.make n_slots empty_result in
  (match pool with
  | Some p when Array.length t > 1 ->
      ignore
        (Vuvuzela_parallel.Pool.run p
           (Array.map (fun s () -> resolve_into s.drops results) t))
  | _ -> Array.iter (fun s -> resolve_into s.drops results) t);
  Array.iteri
    (fun i r ->
      if r == empty_result then results.(i) <- Bytes.copy empty_result)
    results;
  results

(* Observable variables (§4.2): the histogram of access counts.  [m1] is
   the number of drops accessed once, [m2] accessed twice.  These two
   numbers are all an adversary controlling the last server learns
   beyond what its own requests tell it.  Each shard keeps its counts
   at [put] time, so this is O(shards). *)
type histogram = { m1 : int; m2 : int; m_more : int }

let histogram (t : t) =
  Array.fold_left
    (fun acc (s : shard) ->
      { m1 = acc.m1 + s.m1; m2 = acc.m2 + s.m2;
        m_more = acc.m_more + s.m_more })
    { m1 = 0; m2 = 0; m_more = 0 }
    t

(* ------------------------------------------------------------------ *)
(* Invitation drops (dialing)                                          *)
(* ------------------------------------------------------------------ *)

module Invitation = struct
  type store = {
    mutable drops : bytes list array; (* newest first *)
    counts : int array;  (* per-index size, tracked at put so [size] is O(1) *)
    mutable total_invitations : int;
  }

  let create ~m =
    let m = max 1 m in
    { drops = Array.make m []; counts = Array.make m 0; total_invitations = 0 }

  let clear s =
    Array.fill s.drops 0 (Array.length s.drops) [];
    Array.fill s.counts 0 (Array.length s.counts) 0;
    s.total_invitations <- 0

  (* §5.1: invitations for public key pk live in drop H(pk) mod m. *)
  let index_of ~m pk =
    let h = Vuvuzela_crypto.Sha256.digest pk in
    (* Big-endian read of the first 8 digest bytes, reduced mod m. *)
    let v = ref 0 in
    for i = 0 to 7 do
      v := ((!v lsl 8) lor Char.code (Bytes.get h i)) land max_int
    done;
    !v mod m

  let put s ~index invitation =
    if index <> Types.noop_drop then begin
      if index < 0 || index >= Array.length s.drops then
        invalid_arg "Invitation.put: bad drop index";
      s.drops.(index) <- invitation :: s.drops.(index);
      s.counts.(index) <- s.counts.(index) + 1;
      s.total_invitations <- s.total_invitations + 1
    end

  (* Clients download their whole drop and trial-decrypt (§5.1). *)
  let fetch s ~index =
    if index < 0 || index >= Array.length s.drops then
      invalid_arg "Invitation.fetch: bad drop index";
    List.rev s.drops.(index)

  let size s ~index = s.counts.(index)
  let total s = s.total_invitations
end
