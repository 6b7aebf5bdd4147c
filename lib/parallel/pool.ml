(* A persistent domain pool with a shared job queue.

   Workers block on a condition variable between batches, so an idle
   pool costs nothing but memory.  A batch enqueues one closure per
   *chunk* — never one per item — and the coordinating domain executes
   chunk 0 itself, helps drain the queue, then waits for stragglers.
   There is exactly one coordinator per pool (the round engine is
   single-threaded above us), so the queue only ever holds jobs of the
   current batch.

   The chunked combinators write straight into one preallocated result
   array: each domain owns a contiguous index range, so there are no
   per-chunk intermediate arrays, no concatenation copy, and no per-item
   closure or option box. *)

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

(* Contiguous chunks, one per domain: the per-item cost on our hot
   paths is uniform (fixed-size crypto), so equal splits balance well
   and keep per-batch overhead at [jobs] closures.  [body c lo hi] fills
   chunk [c] < [jobs], indices [lo, hi). *)
let run_ranges t n body =
  if n > 0 then begin
    let chunks = min t.jobs n in
    if chunks <= 1 then body 0 0 n
    else
      run_units t
        (Array.init chunks (fun c ->
             let lo = c * n / chunks and hi = (c + 1) * n / chunks in
             fun () -> body c lo hi))
  end

let mapi_array t f a =
  let n = Array.length a in
  if t.jobs = 1 || n < 2 * t.jobs then Array.mapi f a
  else begin
    (* Seed the output with element 0 (computed on the coordinator; [f]
       is pure, so evaluation order is unobservable), then let each
       chunk fill its own range in place — result [i] is written from
       input [i] whatever domain ran it. *)
    let out = Array.make n (f 0 a.(0)) in
    run_ranges t n (fun _ lo hi ->
        for i = max 1 lo to hi - 1 do
          out.(i) <- f i a.(i)
        done);
    out
  end

let map_array t f a = mapi_array t (fun _ x -> f x) a

let iter_array t f a =
  let n = Array.length a in
  if t.jobs = 1 || n < 2 * t.jobs then Array.iter f a
  else
    run_ranges t n (fun _ lo hi ->
        for i = lo to hi - 1 do
          f a.(i)
        done)

(* One call of [f] per chunk, for work that shares a cost across a
   chunk (the peels' one field inversion). *)
let map_chunks t f a =
  let parts = Array.make t.jobs [||] in
  run_ranges t (Array.length a) (fun c lo hi ->
      let r = f (Array.sub a lo (hi - lo)) in
      if Array.length r <> hi - lo then
        invalid_arg "Pool.map_chunks: a chunk's result has the wrong length";
      parts.(c) <- r);
  Array.concat (Array.to_list parts)
