(* Differential properties of the scale plane's dead-drop rewrite.

   The sharded store (Deaddrop.Sharded) and the rewritten monolithic
   store must be observationally identical to the retained seed oracle
   (Deaddrop_ref) on every observable the protocol has: per-slot
   resolve results, the (m1, m2, m_more) histogram, and the transcript
   digest over the whole result array — across shard counts, job
   counts, and adversarial access multiplicities (drop ids are drawn
   from a small pool so 1-, 2- and >2-access drops all occur).

   The stable-bloom prefilter's contract is also checked here: an
   element queried right after its insert is always found (the CDN
   registers a subscription and scans in the same call, so a real
   invitation can never be filtered out), and the measured
   false-positive rate stays within 2x the configured target. *)

open Vuvuzela_crypto
module Deaddrop = Vuvuzela.Deaddrop
module Stable_bloom = Vuvuzela.Stable_bloom
module Pool = Vuvuzela_parallel.Pool

let pools = Hashtbl.create 4

let pool ~jobs =
  match Hashtbl.find_opt pools jobs with
  | Some p -> p
  | None ->
      let p = Pool.create ~jobs in
      Hashtbl.add pools jobs p;
      p

let shutdown_pools () =
  Hashtbl.iter (fun _ p -> Pool.shutdown p) pools;
  Hashtbl.reset pools

(* A generated round: slots put in order, drop ids drawn from a small
   pool so collisions (the protocol's whole point) are common, plus a
   shard count and job count for the store under test. *)
type case = {
  shards : int;
  jobs : int;
  n_slots : int;
  puts : (int * bytes * bytes) array;  (* slot, drop_id, sealed *)
}

let gen_case rng =
  let shards = [| 1; 4; 16 |].(Drbg.uniform ~rng 3) in
  let jobs = [| 1; 4 |].(Drbg.uniform ~rng 2) in
  let n_slots = Drbg.uniform ~rng 161 in
  let n_ids = 1 + Drbg.uniform ~rng 48 in
  let ids = Array.init n_ids (fun _ -> Drbg.bytes ~rng 16) in
  let puts =
    Array.init n_slots (fun slot ->
        (slot, ids.(Drbg.uniform ~rng n_ids), Drbg.bytes ~rng 32))
  in
  { shards; jobs; n_slots; puts }

let digest_of results =
  Bytes_util.to_hex (Sha256.digest (Bytes_util.concat (Array.to_list results)))

let oracle_run c =
  let d = Deaddrop_ref.create () in
  Array.iter
    (fun (slot, drop_id, sealed) -> Deaddrop_ref.put d ~slot ~drop_id ~sealed)
    c.puts;
  let results = Deaddrop_ref.resolve d ~n_slots:c.n_slots in
  (results, Deaddrop_ref.histogram d)

let check_results ~what c expected actual =
  Prop.require
    (Array.length expected = Array.length actual)
    "%s: shards=%d jobs=%d: result count %d <> oracle %d" what c.shards c.jobs
    (Array.length actual) (Array.length expected);
  Array.iteri
    (fun i e ->
      if not (Bytes.equal e actual.(i)) then
        Prop.fail "%s: shards=%d jobs=%d slot %d diverged from oracle" what
          c.shards c.jobs i)
    expected;
  Prop.check_hex ~what:(what ^ " transcript digest") (digest_of expected)
    (digest_of actual)

let check_histogram ~what c (e : Deaddrop_ref.histogram)
    (a : Deaddrop.histogram) =
  Prop.require
    (e.m1 = a.Deaddrop.m1 && e.m2 = a.Deaddrop.m2
    && e.m_more = a.Deaddrop.m_more)
    "%s: shards=%d jobs=%d histogram (%d,%d,%d) <> oracle (%d,%d,%d)" what
    c.shards c.jobs a.Deaddrop.m1 a.Deaddrop.m2 a.Deaddrop.m_more e.m1 e.m2
    e.m_more

let run () =
  Prop.suite "dead-drop store (sharded vs seed oracle)";
  Prop.check ~name:"sharded resolve/histogram/digest = oracle" ~count:500
    gen_case (fun c ->
      let expected, ehist = oracle_run c in
      let d = Deaddrop.Sharded.create ~shards:c.shards () in
      Array.iter
        (fun (slot, drop_id, sealed) ->
          Deaddrop.Sharded.put d ~slot ~drop_id ~sealed)
        c.puts;
      let pool = if c.jobs > 1 then Some (pool ~jobs:c.jobs) else None in
      let actual = Deaddrop.Sharded.resolve ?pool d ~n_slots:c.n_slots in
      check_results ~what:"sharded" c expected actual;
      check_histogram ~what:"sharded" c ehist (Deaddrop.Sharded.histogram d);
      Prop.require
        (Deaddrop.Sharded.total_accesses d = Array.length c.puts)
        "sharded total_accesses %d <> %d"
        (Deaddrop.Sharded.total_accesses d)
        (Array.length c.puts));
  Prop.check ~name:"monolithic resolve/histogram = oracle" ~count:150 gen_case
    (fun c ->
      let expected, ehist = oracle_run c in
      let d = Deaddrop.create () in
      Array.iter
        (fun (slot, drop_id, sealed) -> Deaddrop.put d ~slot ~drop_id ~sealed)
        c.puts;
      let actual = Deaddrop.resolve d ~n_slots:c.n_slots in
      check_results ~what:"monolithic" c expected actual;
      check_histogram ~what:"monolithic" c ehist (Deaddrop.histogram d));
  Prop.check ~name:"resolve results are independent buffers" ~count:60 gen_case
    (fun c ->
      (* The seed store's shared-empty_result bug, fixed: scribbling
         over one lone slot's result must leave every other lone slot
         all-zero. *)
      if c.n_slots > 0 then begin
        let d = Deaddrop.Sharded.create ~shards:c.shards () in
        Array.iter
          (fun (slot, drop_id, sealed) ->
            Deaddrop.Sharded.put d ~slot ~drop_id ~sealed)
          c.puts;
        let results = Deaddrop.Sharded.resolve d ~n_slots:c.n_slots in
        let zero = Bytes.make (Bytes.length Deaddrop.empty_result) '\000' in
        let lone = ref [] in
        Array.iteri
          (fun i r -> if Bytes.equal r zero then lone := i :: !lone)
          results;
        match !lone with
        | [] -> ()
        | first :: rest ->
            Bytes.fill results.(first) 0 (Bytes.length results.(first)) 'X';
            List.iter
              (fun i ->
                Prop.require
                  (Bytes.equal results.(i) zero)
                  "mutating lone slot %d corrupted lone slot %d" first i)
              rest;
            Prop.require
              (Bytes.equal Deaddrop.empty_result zero)
              "mutating a returned result corrupted Deaddrop.empty_result"
      end);

  Prop.suite "stable bloom prefilter";
  Prop.check ~name:"insert-then-query never misses" ~count:200
    (fun rng ->
      let capacity = 8 + Drbg.uniform ~rng 256 in
      let fp = 0.005 +. (Drbg.float_unit ~rng () *. 0.05) in
      let n = 1 + Drbg.uniform ~rng (2 * capacity) in
      let elements = Array.init n (fun _ -> Drbg.bytes ~rng 32) in
      (capacity, fp, elements))
    (fun (capacity, fp, elements) ->
      (* The CDN's access pattern: register, then scan in the same
         call.  Soundness must hold even past capacity, where decay is
         actively evicting older elements. *)
      let f = Stable_bloom.create ~capacity ~fp () in
      Array.iteri
        (fun i e ->
          Stable_bloom.insert f e;
          Prop.require (Stable_bloom.query f e)
            "element %d/%d lost right after insert (capacity=%d fp=%g)" i
            (Array.length elements) capacity fp)
        elements);
  Prop.vector ~name:"measured FP rate within 2x configured" (fun () ->
      let capacity = 2000 and fp = 0.02 in
      let f = Stable_bloom.create ~seed:"prop-fp" ~decay:0 ~capacity ~fp () in
      let rng = Drbg.of_string "prop-deaddrop-fp-elements" in
      for _ = 1 to capacity do
        Stable_bloom.insert f (Drbg.bytes ~rng 32)
      done;
      (* Fresh 33-byte probes can never collide with the 32-byte
         inserts, so every hit below is a false positive. *)
      let probes = 20_000 in
      let hits = ref 0 in
      for _ = 1 to probes do
        if Stable_bloom.query f (Drbg.bytes ~rng 33) then incr hits
      done;
      let measured = float_of_int !hits /. float_of_int probes in
      Prop.require
        (measured <= 2. *. fp)
        "measured FP rate %.4f exceeds 2x configured %.3f" measured fp;
      Prop.require (measured > 0.) "filter at capacity shows no FPs at all");
  shutdown_pools ()
