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
  name : string;
  cache : (int * int, bytes list) Hashtbl.t;  (** (dial_round, index) *)
  bloom : Stable_bloom.t option;  (** subscription prefilter *)
  mutable hits : int;
  mutable misses : int;
  mutable served_bytes : int;
  mutable prefilter_tested : int;
  mutable prefilter_served : int;
}

type t = {
  origin : origin;
  edges : edge array;
  mutable round_floor : int;  (** rounds below this are evicted *)
  history : int;  (** dialing rounds retained in caches *)
}

let invitations_bytes invs =
  List.fold_left (fun acc b -> acc + Bytes.length b) 0 invs

let create ?(edges = 3) ?(history = 2) ?bloom_fp ?(bloom_capacity = 4096)
    ~fetch () =
  if edges < 1 then invalid_arg "Cdn.create: need at least one edge";
  {
    origin = { fetch; origin_requests = 0; origin_bytes = 0 };
    edges =
      Array.init edges (fun i ->
          let name = Printf.sprintf "edge-%d" i in
          {
            name;
            cache = Hashtbl.create 16;
            bloom =
              Option.map
                (fun fp ->
                  Stable_bloom.create ~seed:("cdn-" ^ name)
                    ~capacity:bloom_capacity ~fp ())
                bloom_fp;
            hits = 0;
            misses = 0;
            served_bytes = 0;
            prefilter_tested = 0;
            prefilter_served = 0;
          });
    round_floor = 0;
    history;
  }

let has_prefilter t = Array.exists (fun e -> e.bloom <> None) t.edges

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

(* Serve one (round, index) drop through [edge]'s fill-once cache. *)
let serve origin edge ~dial_round ~index =
  let key = (dial_round, index) in
  let invs =
    match Hashtbl.find_opt edge.cache key with
    | Some invs ->
        edge.hits <- edge.hits + 1;
        invs
    | None ->
        edge.misses <- edge.misses + 1;
        let invs = origin.fetch ~dial_round ~index in
        origin.origin_requests <- origin.origin_requests + 1;
        origin.origin_bytes <- origin.origin_bytes + invitations_bytes invs;
        Hashtbl.replace edge.cache key invs;
        invs
  in
  edge.served_bytes <- edge.served_bytes + invitations_bytes invs;
  invs

let fetch t ~client_pk ~dial_round ~index =
  advance_round t ~dial_round;
  if dial_round < t.round_floor then []
  else serve t.origin (edge_for t ~client_pk) ~dial_round ~index

(* Subscription tags bind the client, round, and drop index, so one
   client's registration can only match another's scan at the filter's
   false-positive rate. *)
let subscription_tag ~client_pk ~dial_round ~index =
  let r = Bytes.create 8 and i = Bytes.create 8 in
  Vuvuzela_crypto.Bytes_util.store_le64 r 0 dial_round;
  Vuvuzela_crypto.Bytes_util.store_le64 i 0 index;
  Vuvuzela_crypto.Sha256.digest
    (Vuvuzela_crypto.Bytes_util.concat
       [ Bytes.of_string "vuvuzela-cdn-subscription"; client_pk; r; i ])

let fetch_matched t ~client_pk ~dial_round ~index ~m =
  advance_round t ~dial_round;
  if dial_round < t.round_floor then []
  else begin
    let edge = edge_for t ~client_pk in
    match edge.bloom with
    | None -> [ (index, serve t.origin edge ~dial_round ~index) ]
    | Some filter ->
        (* Register the subscription, then scan every drop of the round.
           Insert-before-query makes the client's own index a guaranteed
           match (the filter decays before it sets, and nothing
           intervenes), so the prefilter can never lose a real
           invitation.  Other indices pass only at the configured
           false-positive rate — each extra drop served is cover traffic
           on this unmixed path. *)
        Stable_bloom.insert filter
          (subscription_tag ~client_pk ~dial_round ~index);
        let acc = ref [] in
        for j = m - 1 downto 0 do
          edge.prefilter_tested <- edge.prefilter_tested + 1;
          if
            Stable_bloom.query filter
              (subscription_tag ~client_pk ~dial_round ~index:j)
          then begin
            edge.prefilter_served <- edge.prefilter_served + 1;
            acc := (j, serve t.origin edge ~dial_round ~index:j) :: !acc
          end
        done;
        !acc
  end

type stats = {
  origin_requests : int;
  origin_bytes : int;
  edge_hits : int;
  edge_misses : int;
  edge_bytes : int;
  hit_ratio : float;
  prefilter_tested : int;
  prefilter_served : int;
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
    prefilter_tested =
      Array.fold_left (fun a (e : edge) -> a + e.prefilter_tested) 0 t.edges;
    prefilter_served =
      Array.fold_left (fun a (e : edge) -> a + e.prefilter_served) 0 t.edges;
  }
