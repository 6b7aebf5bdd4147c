(* Properties of the chunked domain pool: every combinator must be
   observationally equal to its sequential Array counterpart for pure
   functions — at any job count, any array size, including the empty
   array and sizes that don't divide evenly into chunks.  This is the
   determinism contract the relay's peel stage (and the transcript
   pins) stand on. *)

open Vuvuzela_crypto
module Pool = Vuvuzela_parallel.Pool

(* Domains are expensive to spawn on every case; reuse one pool per job
   count across the whole suite. *)
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

(* A generated case: a job count, and an int array whose size sweeps
   the awkward range around chunk boundaries: below 8 (one chunk),
   where the 4-item floor sets the count, and past [8 * jobs] chunks. *)
let gen_case rng =
  let jobs = 1 + Drbg.uniform ~rng 4 in
  let n = Drbg.uniform ~rng 301 in
  let arr = Array.init n (fun _ -> Drbg.uniform ~rng 1_000_000) in
  (jobs, arr)

(* Pure, index-sensitive, collision-resistant enough to catch a result
   written to the wrong slot or computed from the wrong input. *)
let f i x = (x * 2_654_435_761) lxor (i * 40_503) lxor (x lsr 7)

let run () =
  Prop.suite "parallel pool (chunked)";
  Prop.check ~name:"mapi_array = Array.mapi" ~count:60 gen_case
    (fun (jobs, arr) ->
      let expected = Array.mapi f arr in
      let got = Pool.mapi_array (pool ~jobs) f arr in
      Prop.require (got = expected) "jobs=%d n=%d: mapi_array diverged" jobs
        (Array.length arr));
  Prop.check ~name:"exceptions reach the caller" ~count:20 gen_case
    (fun (jobs, arr) ->
      let n = Array.length arr in
      if n > 0 then begin
        let bad = n / 2 in
        match
          Pool.mapi_array (pool ~jobs)
            (fun i x -> if i = bad then failwith "boom" else f i x)
            arr
        with
        | _ -> Prop.fail "jobs=%d n=%d: exception swallowed" jobs n
        | exception Failure _ -> ()
      end);
  (* A per-element [f] over chunks: equal to [f] over the whole array
     at every job count and length, each element tagged with its index
     so a chunk written to the wrong range shows; [f] sees only
     non-empty chunks, cut by the documented rule; and a chunk result
     of the wrong length raises, at [jobs = 1] too. *)
  Prop.vector ~name:"map_chunks = f on the whole array (jobs 1-4, n 0-300)"
    (fun () ->
      let per_element = Array.map (fun (i, x) -> (i, f i x)) in
      let lock = Mutex.create () in
      List.iter
        (fun jobs ->
          for n = 0 to 300 do
            let arr = Array.init n (fun i -> (i, (i * 7919) + jobs)) in
            let lens = ref [] in
            let recorded c =
              Mutex.protect lock (fun () -> lens := Array.length c :: !lens);
              per_element c
            in
            Prop.require
              (Pool.map_chunks (pool ~jobs) recorded arr = per_element arr)
              "jobs=%d n=%d: map_chunks diverged" jobs n;
            let chunks =
              if jobs = 1 || n = 0 then min n 1
              else max 1 (min (8 * jobs) (n / 4))
            in
            let lens = !lens in
            Prop.require
              (List.length lens = chunks
              && List.for_all
                   (fun l -> l > 0 && (l = n / chunks || l = (n / chunks) + 1))
                   lens)
              "jobs=%d n=%d: chunks of %s items, expected %d" jobs n
              (String.concat "," (List.map string_of_int lens))
              chunks;
            if n > 0 then
              List.iter
                (fun (what, wrong) ->
                  match Pool.map_chunks (pool ~jobs) wrong arr with
                  | _ -> Prop.fail "jobs=%d n=%d: %s chunk accepted" jobs n what
                  | exception Invalid_argument _ -> ())
                [ ("short", fun c -> Array.sub c 0 (Array.length c - 1));
                  ("long", fun c -> Array.append c c) ]
          done)
        [ 1; 2; 3; 4 ]);
  Prop.vector ~name:"empty array at every job count" (fun () ->
      List.iter
        (fun jobs ->
          Prop.require
            (Pool.mapi_array (pool ~jobs) f [||] = [||])
            "jobs=%d: empty mapi_array not empty" jobs)
        [ 1; 2; 3; 4 ]);
  shutdown_pools ()
