(* Invitation-drop distribution (§5.5).

   "Each dead drop is downloaded by a large number of clients ... this
   traffic can overwhelm Vuvuzela's servers, but ... requests for
   downloading invitations do not need to be routed through Vuvuzela's
   servers, since they do not need to be mixed or noised.  Thus, we
   envision that Vuvuzela could use a CDN or BitTorrent-like design."

   This module is that design, in-process: a set of untrusted cache
   nodes in front of the last server (the origin).  Each dialing round's
   drops are immutable once published, so caching is trivial — a cache
   fills once per (round, drop) and serves every subsequent request
   locally.  Byte counters on the origin and each edge show the §5.5
   effect: origin egress is O(m · drop_size) per round instead of
   O(users · drop_size).

   Privacy note, as in the paper: fetches are not mixed, so the CDN (and
   anyone watching it) learns which drop index a client downloads — which
   the adversary already knows from H(pk) mod m.  Contents are still
   trial-decryption-protected. *)

type origin = {
  fetch : dial_round:int -> index:int -> bytes list;
  mutable origin_requests : int;
  mutable origin_bytes : int;
}

type edge = {
  cache : (int * int, bytes list) Hashtbl.t;  (** (dial_round, index) *)
  mutable hits : int;
  mutable misses : int;
  mutable served_bytes : int;
}

type t = {
  origin : origin;
  edges : edge array;
  mutable round_floor : int;  (** rounds below this are evicted *)
  history : int;  (** dialing rounds retained in caches *)
}

let invitations_bytes invs =
  List.fold_left (fun acc b -> acc + Bytes.length b) 0 invs

let create ?(edges = 3) ?(history = 2) ~fetch () =
  if edges < 1 then invalid_arg "Cdn.create: need at least one edge";
  {
    origin = { fetch; origin_requests = 0; origin_bytes = 0 };
    edges =
      Array.init edges (fun _ ->
          { cache = Hashtbl.create 16; hits = 0; misses = 0;
            served_bytes = 0 });
    round_floor = 0;
    history;
  }

(* Clients are spread across edges by their public key, like a DNS-based
   CDN would. *)
let edge_for t ~client_pk =
  let h = Vuvuzela_crypto.Sha256.digest client_pk in
  t.edges.(Char.code (Bytes.get h 0) mod Array.length t.edges)

(* Evict drops older than [history] dialing rounds; they are ephemeral
   and no honest client re-fetches them. *)
let advance_round t ~dial_round =
  let floor = dial_round - t.history in
  if floor > t.round_floor then begin
    t.round_floor <- floor;
    Array.iter
      (fun e ->
        Hashtbl.iter
          (fun ((r, _) as key) _ ->
            if r < floor then Hashtbl.remove e.cache key)
          (Hashtbl.copy e.cache))
      t.edges
  end

(* Serve a client's drop through its edge's fill-once cache. *)
let fetch t ~client_pk ~dial_round ~index =
  advance_round t ~dial_round;
  if dial_round < t.round_floor then []
  else begin
    let edge = edge_for t ~client_pk in
    let key = (dial_round, index) in
    let invs =
      match Hashtbl.find_opt edge.cache key with
      | Some invs ->
          edge.hits <- edge.hits + 1;
          invs
      | None ->
          edge.misses <- edge.misses + 1;
          let invs = t.origin.fetch ~dial_round ~index in
          t.origin.origin_requests <- t.origin.origin_requests + 1;
          t.origin.origin_bytes <-
            t.origin.origin_bytes + invitations_bytes invs;
          Hashtbl.replace edge.cache key invs;
          invs
    in
    edge.served_bytes <- edge.served_bytes + invitations_bytes invs;
    invs
  end

type stats = {
  origin_requests : int;
  origin_bytes : int;
  edge_hits : int;
  edge_misses : int;
  edge_bytes : int;
  hit_ratio : float;
}

let stats t =
  let hits = Array.fold_left (fun a e -> a + e.hits) 0 t.edges in
  let misses = Array.fold_left (fun a e -> a + e.misses) 0 t.edges in
  {
    origin_requests = t.origin.origin_requests;
    origin_bytes = t.origin.origin_bytes;
    edge_hits = hits;
    edge_misses = misses;
    edge_bytes = Array.fold_left (fun a e -> a + e.served_bytes) 0 t.edges;
    hit_ratio =
      (if hits + misses = 0 then 0.
       else float_of_int hits /. float_of_int (hits + misses));
  }
