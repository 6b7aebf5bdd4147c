(* The Vuvuzela round pipeline.

   Each server machine processes one round's batch at a time ("to avoid
   leaking information about a server's permutation of messages, one
   server cannot start processing a round until the previous server
   finishes", §8.2).  Successive rounds pipeline: while round r is at
   server 2, round r+1 can occupy server 1.  The entry server opens a
   new round a coordination gap after the first chain server finishes
   the previous one.

   With fixed stage times this FIFO chain is a max-plus recurrence:
   round r starts at server i once round r has left server i-1 and
   round r-1 has left server i; each stage time is
   [Cost_model.stage_time].  Every round interval, throughput and
   bandwidth the figures print comes from [run] (§8.2's 68K msgs/s,
   §8.3's "4 messages per minute per client"); one round through an idle
   chain is [Cost_model.conv_latency], the same sum. *)

type result = {
  rounds_completed : int;
  mean_latency : float;  (** end-to-end, request submission to reply *)
  round_interval : float;  (** time between consecutive round completions *)
  throughput : float;  (** user messages exchanged per second *)
  server_utilization : float array;
}

let run ?(model = Cost_model.paper) ~users ~servers ~noise ~rounds () =
  if servers < 1 then invalid_arg "Pipeline.run: need at least one server";
  if rounds < 1 then invalid_arg "Pipeline.run: need at least one round";
  let efficiency = model.Cost_model.pipeline_efficiency in
  if not (efficiency > 0. && efficiency <= 1.) then
    invalid_arg "Pipeline.run: pipeline_efficiency must be in (0, 1]";
  let d =
    Array.init servers (fun at ->
        Cost_model.stage_time model ~users ~servers ~noise ~at)
  in
  if not (Array.for_all (fun t -> t >= 0.) d) then
    invalid_arg "Pipeline.run: negative stage time";
  (* The entry server opens round r+1 once server 0 has finished round r
     plus a coordination gap (the client collection window); latency is
     measured from the moment a round's batch enters server 0 — the
     paper's end-to-end round latency. *)
  let gap = d.(0) *. ((1. /. efficiency) -. 1.) in
  (* [finish.(i)]: when server i finished the latest round so far.
     Busy time adds [stop -. start], the time the server was held, not
     [d.(i)]: the two can differ in the last bit. *)
  let finish = Array.make servers 0. in
  let busy = Array.make servers 0. in
  let latency_sum = ref 0. and first_done = ref 0. in
  for r = 0 to rounds - 1 do
    let entered = if r = 0 then 0. else finish.(0) +. gap in
    let ready = ref entered in
    for i = 0 to servers - 1 do
      let start = Float.max !ready finish.(i) in
      let stop = start +. d.(i) in
      busy.(i) <- busy.(i) +. (stop -. start);
      finish.(i) <- stop;
      ready := stop
    done;
    latency_sum := !latency_sum +. (!ready -. entered);
    if r = 0 then first_done := !ready
  done;
  let mean_latency = !latency_sum /. float_of_int rounds in
  let last_done = finish.(servers - 1) in
  let round_interval =
    if rounds = 1 then mean_latency
    else (last_done -. !first_done) /. float_of_int (rounds - 1)
  in
  (* The horizon is the last moment anything happens: the final round's
     completion, or the entry server's gap after it, if that ends later. *)
  let horizon = Float.max last_done (finish.(0) +. gap) in
  {
    rounds_completed = rounds;
    mean_latency;
    round_interval;
    throughput = float_of_int users /. Float.max round_interval 1e-9;
    server_utilization =
      Array.map (fun b -> if horizon <= 0. then 0. else b /. horizon) busy;
  }
