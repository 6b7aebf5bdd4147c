(* select(2) loop with one-shot timers, posted tasks and a clock that
   may skip ahead.

   Dispatch safety: callbacks add and remove fds (a Conn tearing itself
   down removes its fd; an accept callback adds one), so each round
   snapshots the ready sets and re-checks registration before invoking a
   handler.  Tasks posted during a dispatch run on the next one. *)

type handler = {
  on_readable : unit -> unit;
  on_writable : unit -> unit;
  mutable want_write : bool;
}

type timer = { id : int; fire_at : float; fn : unit -> unit }

type t = {
  fds : (Unix.file_descr, handler) Hashtbl.t;
  mutable timers : timer list;  (** sorted by [fire_at] *)
  mutable next_id : int;
  posted : (unit -> unit) Queue.t;
  virtual_clock : bool;
  mutable skipped : float;  (** ms the clock has skipped ahead of the wall *)
}

let create ?(virtual_clock = false) () =
  {
    fds = Hashtbl.create 16;
    timers = [];
    next_id = 0;
    posted = Queue.create ();
    virtual_clock;
    skipped = 0.;
  }

let now_ms t = Clock.now_ms () +. t.skipped
let skipped_ms t = t.skipped

let add_fd t fd ~on_readable ~on_writable =
  Hashtbl.replace t.fds fd { on_readable; on_writable; want_write = false }

let want_write t fd flag =
  match Hashtbl.find_opt t.fds fd with
  | Some h -> h.want_write <- flag
  | None -> ()

let remove_fd t fd = Hashtbl.remove t.fds fd
let post t fn = Queue.push fn t.posted

let after t ~ms fn =
  let id = t.next_id in
  t.next_id <- id + 1;
  let tm = { id; fire_at = now_ms t +. Float.max 0. ms; fn } in
  let rec insert = function
    | [] -> [ tm ]
    | x :: _ as rest when tm.fire_at < x.fire_at -> tm :: rest
    | x :: rest -> x :: insert rest
  in
  t.timers <- insert t.timers;
  id

let cancel t id = t.timers <- List.filter (fun tm -> tm.id <> id) t.timers

let sleep t ~ms =
  if ms > 0. then
    if t.virtual_clock then t.skipped <- t.skipped +. ms
    else Unix.sleepf (ms /. 1000.)

let fire_due t =
  let now = now_ms t in
  let due, later = List.partition (fun tm -> tm.fire_at <= now) t.timers in
  t.timers <- later;
  List.iter (fun tm -> tm.fn ()) due

let dispatch t ~wait_ms =
  let reads = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.fds [] in
  let writes =
    Hashtbl.fold (fun fd h acc -> if h.want_write then fd :: acc else acc)
      t.fds []
  in
  match Unix.select reads writes [] (wait_ms /. 1000.) with
  | readable, writable, _ ->
      List.iter
        (fun fd ->
          match Hashtbl.find_opt t.fds fd with
          | Some h -> h.on_readable ()
          | None -> ())
        readable;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt t.fds fd with
          | Some h when h.want_write -> h.on_writable ()
          | Some _ | None -> ())
        writable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Posted tasks are ready work: while any wait, they run and timers do
   not, so the order in which an in-memory exchange unfolds never
   depends on how long its steps took on the wall clock. *)
let run_posted t =
  for _ = 1 to Queue.length t.posted do
    (Queue.pop t.posted) ()
  done

let run_once ?max_wait_ms t =
  let until_timer =
    match t.timers with
    | [] -> None
    | tm :: _ -> Some (Float.max 0. (tm.fire_at -. now_ms t))
  in
  if not (Queue.is_empty t.posted) then run_posted t
  else if t.virtual_clock then begin
    if Hashtbl.length t.fds > 0 then dispatch t ~wait_ms:0.;
    (* Nothing is ready: skip to the next timer instead of sleeping. *)
    (match (until_timer, max_wait_ms) with
    | Some tmr, Some m -> t.skipped <- t.skipped +. Float.max 0. (Float.min tmr m)
    | Some tmr, None -> t.skipped <- t.skipped +. tmr
    | None, _ -> ());
    fire_due t
  end
  else begin
    let wait_ms =
      match (max_wait_ms, until_timer) with
      | Some m, Some tmr -> Float.min m tmr
      | Some m, None -> m
      | None, Some tmr -> Float.min tmr 100.
      | None, None -> 100.
    in
    dispatch t ~wait_ms;
    fire_due t
  end

let idle t =
  t.virtual_clock && Queue.is_empty t.posted && t.timers = []
  && Hashtbl.length t.fds = 0

let run_until ?deadline_ms t pred =
  let t0 = now_ms t in
  let rec go () =
    if pred () then true
    else if idle t then false
    else
      match deadline_ms with
      | Some d when now_ms t -. t0 >= d -> false
      | Some d ->
          run_once ~max_wait_ms:(d -. (now_ms t -. t0)) t;
          go ()
      | None ->
          run_once t;
          go ()
  in
  go ()
