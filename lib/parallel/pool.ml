(* A persistent domain pool with a shared job queue.

   Workers block on a condition variable between batches, so an idle
   pool costs nothing but memory.  A batch enqueues one closure per
   *chunk* — never one per item — and the coordinating domain executes
   chunk 0 itself, helps drain the queue, then waits for stragglers.
   There is exactly one coordinator per pool (the round engine is
   single-threaded above us), so the queue only ever holds jobs of the
   current batch.

   A batch is cut into several small chunks per domain, not one equal
   share each.  The per-item cost on our hot paths is uniform
   (fixed-size crypto), but a domain's speed is not: the hypervisor
   takes a vCPU away, one domain runs a GC slice, a worker wakes late.
   With one share per domain, the coordinator would sit idle until the
   slow domain finished its half (3.5–13 ms a round on the benchmark's
   2-vCPU VM).  With small chunks on one queue, every domain takes the
   next chunk as soon as it is done with its last, so a faster domain
   simply runs more of them.

   The chunked combinators write straight into one result array: each
   chunk owns a contiguous index range of it, so there are no per-item
   closures or option boxes and no concatenation copy. *)

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;  (** reused across batches — one coordinator *)
  mutable live : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.jobs
let default_jobs () = Domain.recommended_domain_count ()

let worker t =
  let rec next () =
    Mutex.lock t.lock;
    let rec take () =
      if not t.live then begin
        Mutex.unlock t.lock;
        None
      end
      else
        match Queue.take_opt t.queue with
        | Some job ->
            Mutex.unlock t.lock;
            Some job
        | None ->
            Condition.wait t.work_available t.lock;
            take ()
    in
    match take () with
    | None -> ()
    | Some job ->
        job ();
        next ()
  in
  next ()

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      live = true;
      domains = [];
    }
  in
  if jobs > 1 then
    t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.live <- false;
  Condition.broadcast t.work_available;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Execute all thunks, blocking until every one has finished.  The
   first exception (from any domain) is re-raised on the caller. *)
let run_units t (thunks : (unit -> unit) array) =
  let n = Array.length thunks in
  if n = 0 then ()
  else if t.jobs = 1 || n = 1 then Array.iter (fun job -> job ()) thunks
  else begin
    let remaining = ref n in
    let first_exn = ref None in
    let wrapped job () =
      (try job ()
       with e ->
         Mutex.lock t.lock;
         if !first_exn = None then first_exn := Some e;
         Mutex.unlock t.lock);
      Mutex.lock t.lock;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.batch_done;
      Mutex.unlock t.lock
    in
    Mutex.lock t.lock;
    for i = 1 to n - 1 do
      Queue.add (wrapped thunks.(i)) t.queue
    done;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    wrapped thunks.(0) ();
    (* Help drain the queue rather than idling. *)
    let rec help () =
      Mutex.lock t.lock;
      match Queue.take_opt t.queue with
      | Some job ->
          Mutex.unlock t.lock;
          job ();
          help ()
      | None -> Mutex.unlock t.lock
    in
    help ();
    Mutex.lock t.lock;
    while !remaining > 0 do
      Condition.wait t.batch_done t.lock
    done;
    Mutex.unlock t.lock;
    match !first_exn with Some e -> raise e | None -> ()
  end

let run t thunks =
  let n = Array.length thunks in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run_units t
      (Array.mapi (fun i job () -> results.(i) <- Some (job ())) thunks);
    Array.map Option.get results
  end

(* How a batch of [n] items is cut: into [chunks_per_domain] chunks per
   domain, but never into chunks of fewer than [min_chunk] items, so a
   chunk that shares one field inversion among its items (the peels,
   noise wrapping) keeps it a small share of the chunk's DH work — one
   inversion is ~9 µs, four ladders ~0.5 ms.  A floor of 8 left the
   benchmark's 8-onion noise batches and trailing parts on one domain,
   for 2.5–7.5% fewer [conv-steady] msgs/s on a 2-vCPU VM (three 10 s
   pairs).  The bounds depend on [n] and [jobs] alone, never on which
   domain is faster. *)
let chunks_per_domain = 8
let min_chunk = 4

(* [body lo hi] for every chunk [lo, hi) of [0, n), each chunk at least
   one item long, all of them taken from the queue by whichever domain
   is free; a batch of one chunk runs on the caller. *)
let run_chunks t n body =
  let chunks =
    if t.jobs = 1 then 1 else min (t.jobs * chunks_per_domain) (n / min_chunk)
  in
  if chunks > 1 then
    run_units t
      (Array.init chunks (fun c ->
           let lo = c * n / chunks and hi = (c + 1) * n / chunks in
           fun () -> body lo hi))
  else if n > 0 then body 0 n

let mapi_array t f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    (* Seed the output with element 0 (computed on the coordinator; [f]
       is pure, so evaluation order is unobservable), then let each
       chunk fill its own range in place — result [i] is written from
       input [i] whatever domain ran it. *)
    let out = Array.make n (f 0 a.(0)) in
    run_chunks t n (fun lo hi ->
        for i = max 1 lo to hi - 1 do
          out.(i) <- f i a.(i)
        done);
    out
  end

(* One call of [f] per chunk, for work that shares a cost across a
   chunk (the peels' one field inversion).  The first chunk to finish
   allocates the result, seeded with its own first item, under the
   pool's lock; every chunk then blits its range into it. *)
let map_chunks t f a =
  let n = Array.length a in
  let out = ref [||] in
  run_chunks t n (fun lo hi ->
      let r = f (Array.sub a lo (hi - lo)) in
      if Array.length r <> hi - lo then
        invalid_arg "Pool.map_chunks: a chunk's result has the wrong length";
      Mutex.lock t.lock;
      if Array.length !out = 0 then out := Array.make n r.(0);
      let o = !out in
      Mutex.unlock t.lock;
      Array.blit r 0 o lo (hi - lo));
  !out
