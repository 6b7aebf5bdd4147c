(* The repository benchmark: server-side round latency and throughput of
   a Vuvuzela deployment on four workloads, with a per-layer accounting
   taken from a separate traced run.

     run.exe --workload NAME --seed S --seconds T --trace 0|1 [--out F]
     run.exe [--seed S] [--out F]     every workload, each in a child
     run.exe --smoke                  64 clients, 3 rounds, traced

   The benchmark sits outside every layer: it builds a deployment and a
   client population through public constructors, feeds each round
   through a streaming [Entry] collector, and checks every reply.

   End-to-end times are reported at the host's reference speed: each is
   scaled by the gauge kernel's nominal time over its time right before
   and after (Gauge).  The wall-clock values are printed beside them.

   Load model: a closed loop.  Every client has one request in flight per
   round and the next round starts only after every reply is checked.
   The generator runs on the coordinating domain between rounds, so it
   never competes with the chain for a core.  Building onions costs the
   clients twice the X25519 work the servers do, so it is kept out of
   the round window and most of the wall clock: every tenth round
   carries a freshly built batch (its build time is the clients' cost),
   and the rounds between replay it under its round number.  A replay is
   a fresh round to every server — dedup tables, dead drops, noise and
   shuffles are per round — and its replies are checked again. *)

open Vuvuzela
module Drbg = Vuvuzela_crypto.Drbg
module Curve25519 = Vuvuzela_crypto.Curve25519
module Aead = Vuvuzela_crypto.Aead
module Onion = Vuvuzela_mixnet.Onion
module Laplace = Vuvuzela_dp.Laplace
module Noise = Vuvuzela_dp.Noise
module Loadgen = Vuvuzela_loadgen.Loadgen
module Trace = Vuvuzela_telemetry.Trace
module Json = Vuvuzela_telemetry.Json
module Addr = Vuvuzela_transport.Addr
module Conn = Vuvuzela_transport.Conn

let now = Unix.gettimeofday
let ms_since t0 = 1000. *. (now () -. t0)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type kind = Conv | Dial of { m : int; callers : int }
type deploy = In_process | Tcp

type workload = {
  name : string;
  n : int;  (** clients *)
  mu : float;  (** conversation noise: µ singles, µ/2 pairs per mixing hop *)
  dial_mu : float;  (** dialing noise per drop per hop *)
  kind : kind;
  deploy : deploy;
}

(* Sizes are set so that a 25 s run holds 50 to 160 timed rounds on a
   2-core host; a run goes on past its seconds until it has forty (p75
   then has ten samples beyond it).  Fewer rounds make the run's median
   wander: at 256 clients and µ=10, a dialing run held about 80 rounds
   and the median of ten runs spread by 10%. *)
let workloads =
  [
    (* Per-onion peel and relay framing carry the round; noise is ~9% of
       the servers' X25519 work.  The paper's Figure 9 steady state. *)
    { name = "conv-steady"; n = 256; mu = 4.; dial_mu = 1.; kind = Conv;
      deploy = In_process };
    (* Noise wrapping, and peeling that noise downstream, are ~92% of the
       servers' X25519 work: the paper's low-population regime. *)
    { name = "conv-noise"; n = 32; mu = 64.; dial_mu = 1.; kind = Conv;
      deploy = In_process };
    (* The same servers in dialing mode: per-drop noise, the invitation
       store instead of pair matching, 82-byte payloads, and clients
       that download and trial-decrypt their drop. *)
    { name = "dial"; n = 128; mu = 4.; dial_mu = 5.;
      kind = Dial { m = 4; callers = 8 }; deploy = In_process };
    (* The production deployment: three daemons on loopback TCP, so the
       only workload with sockets, the event loop and cross-process
       pipelining. *)
    { name = "conv-tcp"; n = 256; mu = 4.; dial_mu = 1.; kind = Conv;
      deploy = Tcp };
  ]

let chain_len = 3
let chunk = 128 (* entry and relay part size: two parts per link at n = 256 *)
let shards = 8
let setups = 9 (* setup_s is the median of this many deployments *)
let refresh = 10 (* every tenth round carries a freshly built batch *)
let min_timed = 40
let min_traced = 10
let max_run_s = 150. (* a run that cannot reach its minimum stops here *)
let part_header = 5 (* a batch part adds u32 seq and u8 last to a batch *)

(* The in-process chain's domains.  The generator and the gauge run on
   the coordinating domain between rounds, so they add none. *)
let jobs = min 2 (Domain.recommended_domain_count ())

let dialing w = match w.kind with Conv -> false | Dial _ -> true

(* What each hop adds per round under deterministic noise. *)
let planned_noise w =
  Array.init chain_len (fun i ->
      match w.kind with
      | Conv when i = chain_len - 1 -> 0
      | Conv ->
          int_of_float (Float.ceil w.mu)
          + (2 * int_of_float (Float.ceil (w.mu /. 2.)))
      | Dial { m; _ } -> m * int_of_float (Float.ceil w.dial_mu))

(* ------------------------------------------------------------------ *)
(* Samples and checks                                                  *)
(* ------------------------------------------------------------------ *)

(* Named sample series, turned into metrics when the run ends. *)
let series : (string, float list) Hashtbl.t = Hashtbl.create 32

let record name v =
  Hashtbl.replace series name
    (v :: Option.value ~default:[] (Hashtbl.find_opt series name))

let samples name =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt series name))

let median_of name =
  match samples name with [] -> None | xs -> Some (Stats.median xs)

let attempted = ref 0
let failed = ref 0
let problems = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        prerr_endline ("benchmark: check failed: " ^ msg);
        incr problems
      end)
    fmt

(* Peak resident set (VmHWM) of a process, in kB. *)
let vm_hwm_kb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" Fun.id
        | Some _ -> scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  lost : int;  (** requests whose reply or delivery failed *)
  verify_ms : float;
  fetch_ms : float;
  scan_ms : float;
  scanned : int;  (** invitations trial-decrypted *)
  drop_bytes : int;  (** invitation bytes downloaded *)
}

(* One round's batch and the check of its replies. *)
type batch = {
  round : int;
  onions : bytes array;
  check : fetch:(index:int -> bytes list) -> bytes array -> outcome;
}

(* Conversation: the vectorized population, pairs 2k and 2k+1. *)
let conv_client ~seed ~n =
  let pop = Loadgen.create ~seed:(seed ^ "-population") ~n () in
  fun ~round ~pks ->
    let onions = Loadgen.conversation_onions pop ~round ~server_pks:pks in
    let check ~fetch:_ replies =
      let t0 = now () in
      let d = Loadgen.verify pop ~round replies in
      {
        lost = d.Loadgen.expected - d.Loadgen.delivered + (n mod 2) - d.Loadgen.lone;
        verify_ms = ms_since t0;
        fetch_ms = 0.;
        scan_ms = 0.;
        scanned = 0;
        drop_bytes = 0;
      }
    in
    { round; onions; check }

(* Dialing: [callers] rotating clients invite a callee drawn from the
   seed; everybody else sends a no-op.  Each callee downloads its drop
   and must find every caller that dialed it. *)
let dial_client ~seed ~n ~m ~callers =
  if n < 2 then invalid_arg "dial: needs at least two clients";
  let id_rng = Drbg.of_string (seed ^ "-identities") in
  let ids = Array.init n (fun _ -> Types.fresh_identity ~rng:id_rng ()) in
  let pk i = ids.(i).Types.public in
  let rng = Drbg.of_string (seed ^ "-dialing") in
  fun ~round ~pks ->
    let calls =
      List.init (min callers n) (fun k ->
          let caller = ((round * callers) + k) mod n in
          (caller, (caller + 1 + Drbg.uniform ~rng (n - 1)) mod n))
    in
    let wrapped =
      Array.init n (fun i ->
          let payload =
            match List.assoc_opt i calls with
            | Some callee ->
                Dialing.invite ~rng ~identity:ids.(i) ~callee_pk:(pk callee) ~m ()
            | None -> Dialing.noop ~rng ()
          in
          Onion.wrap_with
            ~eph_sks:(Onion.draw_eph_sks ~rng ~chain_len ())
            ~server_pks:pks ~round payload)
    in
    let check ~fetch replies =
      let t0 = now () in
      let acked = ref 0 in
      Array.iteri
        (fun i reply ->
          match
            Onion.unwrap_reply ~secrets:wrapped.(i).Onion.secrets ~round reply
          with
          | Some ack when Bytes.length ack = Types.dial_result_len -> incr acked
          | Some _ | None -> ())
        replies;
      let verify_ms = ms_since t0 in
      let fetch_ms = ref 0. and scan_ms = ref 0. in
      let scanned = ref 0 and drop_bytes = ref 0 in
      let found =
        List.map
          (fun c ->
            let t0 = now () in
            let drop = fetch ~index:(Dialing.my_drop ~identity:ids.(c) ~m) in
            fetch_ms := !fetch_ms +. ms_since t0;
            scanned := !scanned + List.length drop;
            drop_bytes :=
              List.fold_left (fun a b -> a + Bytes.length b) !drop_bytes drop;
            let t0 = now () in
            let callers = Dialing.scan ~identity:ids.(c) drop in
            scan_ms := !scan_ms +. ms_since t0;
            (c, callers))
          (List.sort_uniq compare (List.map snd calls))
      in
      let missing =
        List.filter
          (fun (caller, callee) ->
            not (List.exists (Bytes.equal (pk caller)) (List.assoc callee found)))
          calls
      in
      {
        lost = n - !acked + List.length missing;
        verify_ms;
        fetch_ms = !fetch_ms;
        scan_ms = !scan_ms;
        scanned = !scanned;
        drop_bytes = !drop_bytes;
      }
    in
    { round; onions = Array.map (fun w -> w.Onion.onion) wrapped; check }

(* ------------------------------------------------------------------ *)
(* Deployments                                                         *)
(* ------------------------------------------------------------------ *)

type daemons = {
  remote : Remote.t;
  pids : int list;
  traces : string array option;
      (** in traced runs, the file each daemon writes its spans to when
          it shuts down *)
}

type deployment = Local of Chain.t | Daemons of daemons

(* The paper's ratio b = µ/21.7; deterministic noise adds exactly µ. *)
let noise_params mu = Laplace.params ~mu ~b:(mu /. 21.7)

let local_chain w ~seed =
  Chain.of_config
    Config.(
      default |> with_seed seed |> with_n_servers chain_len
      |> with_noise (noise_params w.mu)
      |> with_dial_noise (noise_params w.dial_mu)
      |> with_noise_mode Noise.Deterministic |> with_jobs jobs
      |> with_deaddrop_shards shards |> with_pipeline ~chunk true
      |> with_entry_streaming true)

(* The daemon sits next to this executable in the build tree. *)
let server_bin () =
  let bin =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/server_main.exe"
  in
  if not (Sys.file_exists bin) then
    failwith (bin ^ " is missing: build bin/server_main.exe first");
  bin

(* [k] distinct free loopback ports below the kernel's ephemeral range.
   A port the kernel hands out for bind(0) can be taken, before the
   daemon binds it, as the local end of a connection that a daemon or
   the coordinator opens; that daemon then cannot listen, and the
   deployment fails its handshake. *)
let free_ports k =
  let ephemeral_low =
    try
      In_channel.with_open_text "/proc/sys/net/ipv4/ip_local_port_range" (fun ic ->
          Scanf.sscanf (In_channel.input_all ic) " %d" Fun.id)
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> 32768
  in
  let rng = Random.State.make_self_init () in
  let free port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
        | () -> true
        | exception Unix.Unix_error _ -> false)
  in
  let rec pick acc tries =
    if List.length acc = k then Array.of_list acc
    else if tries = 0 then failwith "no free loopback port below the ephemeral range"
    else
      let port = 1024 + Random.State.int rng (max 1 (ephemeral_low - 1024)) in
      if List.mem port acc || not (free port) then pick acc (tries - 1)
      else pick (port :: acc) (tries - 1)
  in
  pick [] 1000

(* Give the process [grace] seconds to exit by itself (a daemon that got
   Bye writes its trace first), then SIGTERM, then SIGKILL after 3 s;
   always reaped. *)
let stop_pid ~grace pid =
  let rec wait ~until ~expired =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () > until -> expired ()
    | 0, _ ->
        Unix.sleepf 0.01;
        wait ~until ~expired
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ~until:(now () +. grace) ~expired:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      wait ~until:(now () +. 3.) ~expired:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)))

let spawn_daemons w ~seed ~traced =
  let bin = server_bin () in
  let ports = free_ports chain_len in
  (* Beside the executable, so inside the build tree. *)
  let traces =
    if traced then
      Some
        (Array.init chain_len (fun i ->
             Filename.concat
               (Filename.dirname Sys.executable_name)
               (Printf.sprintf "daemon-%d-%d.trace.jsonl" (Unix.getpid ()) i)))
    else None
  in
  let loopback port = Printf.sprintf "127.0.0.1:%d" port in
  let args i =
    [ bin; "--listen"; loopback ports.(i); "--index"; string_of_int i;
      "--chain-len"; string_of_int chain_len; "--seed"; seed;
      "--mu"; Printf.sprintf "%g" w.mu;
      "--noise-b"; Printf.sprintf "%g" (w.mu /. 21.7);
      "--dial-mu"; Printf.sprintf "%g" w.dial_mu;
      "--dial-b"; Printf.sprintf "%g" (w.dial_mu /. 21.7);
      "--deterministic-noise"; "--jobs"; "1";
      "--deaddrop-shards"; string_of_int shards;
      "--pipeline"; "--pipeline-chunk"; string_of_int chunk; "--quiet" ]
    @ (if i < chain_len - 1 then [ "--next"; loopback ports.(i + 1) ] else [])
    @ match traces with Some t -> [ "--trace-out"; t.(i) ] | None -> []
  in
  let pids = ref [] in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      try
        (* Downstream first, so each daemon finds its successor up. *)
        for i = chain_len - 1 downto 0 do
          pids :=
            Unix.create_process bin (Array.of_list (args i)) Unix.stdin devnull
              Unix.stderr
            :: !pids
        done;
        match
          Remote.connect ~handshake_timeout_ms:30_000.
            ~addr:(Addr.loopback ~port:ports.(0)) ()
        with
        | Error e -> failwith ("daemons: " ^ e)
        | Ok remote ->
            Remote.set_deadline_ms remote (Some 60_000.);
            { remote; pids = !pids; traces }
      with e ->
        List.iter (stop_pid ~grace:0.) !pids;
        raise e)

let deploy w ~seed ~traced =
  match w.deploy with
  | In_process -> Local (local_chain w ~seed)
  | Tcp -> Daemons (spawn_daemons w ~seed ~traced)

let server_rss_kb = function
  | Local _ -> vm_hwm_kb 0
  | Daemons d -> List.fold_left (fun acc pid -> max acc (vm_hwm_kb pid)) 0 d.pids

let teardown = function
  | Local c -> Chain.shutdown c
  | Daemons d ->
      Fun.protect
        ~finally:(fun () -> List.iter (stop_pid ~grace:5.) d.pids)
        (fun () -> Remote.shutdown d.remote)

let public_keys = function
  | Local c -> Chain.public_keys c
  | Daemons d -> Remote.public_keys d.remote

let fetch dep ~index =
  match dep with
  | Local c -> Chain.fetch_invitations c ~index
  | Daemons _ -> invalid_arg "fetch: dialing runs in process"

(* Per-hop cumulative counters of an in-process chain: onions in,
   onions rejected (malformed or duplicate), noise onions added. *)
let hop_counters chain =
  Array.init chain_len (fun i ->
      let m = Server.metrics (Chain.server chain i) in
      ( m.Server.requests_in,
        m.Server.invalid_requests + m.Server.duplicate_requests,
        m.Server.noise_singles + (2 * m.Server.noise_pairs)
        + m.Server.noise_invitations ))

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

(* Hand the batch to a streaming Entry collector in slot order; the
   sink is the deployment's link to hop 0. *)
let submit_all (b : batch) ~sink =
  let entry = Entry.create_streaming ~round:b.round ~chunk ~sink () in
  Array.iteri
    (fun i onion ->
      match Entry.submit entry i onion with
      | Entry.Accepted -> ()
      | Entry.Late _ -> failwith "entry: round closed during intake")
    b.onions;
  let ids = Entry.close_stream entry in
  (ids, Entry.peak_buffered entry)

let slot_aligned ~n ids replies =
  let out = Array.make n Bytes.empty in
  List.iter (fun (id, r) -> out.(id) <- r) (Entry.demux ~ids replies);
  out

(* Account one round's outcome and check its replies. *)
let settle w dep (b : batch) result =
  attempted := !attempted + w.n;
  match result with
  | Error st ->
      failed := !failed + w.n;
      check false "round %d: %s" b.round (Format.asprintf "%a" Rpc.pp_status st);
      None
  | Ok replies ->
      let o = b.check ~fetch:(fetch dep) replies in
      failed := !failed + o.lost;
      check (o.lost = 0) "round %d: %d of %d requests failed" b.round o.lost w.n;
      Some o

let record_outcome prefix o =
  record (prefix ^ "verify_ms") o.verify_ms;
  record (prefix ^ "client_ms") (o.verify_ms +. o.fetch_ms +. o.scan_ms);
  record (prefix ^ "fetch_ms") o.fetch_ms;
  record (prefix ^ "scan_ms") o.scan_ms;
  record (prefix ^ "drop_kb") (float_of_int o.drop_bytes /. 1024.)

(* The per-hop checks of a round: nothing rejected, noise exactly as
   planned, and each hop receiving the clients plus all the noise
   upstream of it. *)
let check_hops w counts =
  let plan = planned_noise w in
  let expect_in = Stats.onions_in ~n:w.n ~noise:plan in
  Array.iteri
    (fun i (inn, bad, noise) ->
      check (bad = 0) "hop%d rejected %d onions" i bad;
      check (noise = plan.(i)) "hop%d added %d noise onions, planned %d" i noise
        plan.(i);
      check (inn = expect_in.(i)) "hop%d received %d onions, expected %d" i inn
        expect_in.(i);
      record (Printf.sprintf "hop%d.onions_in" i) (float_of_int inn);
      record (Printf.sprintf "hop%d.invalid" i) (float_of_int bad);
      record (Printf.sprintf "hop%d.noise_out" i) (float_of_int noise))
    counts

let diff_counts before after =
  Array.map2 (fun (a, b, c) (a', b', c') -> (a' - a, b' - b, c' - c)) before after

(* [f ()] and the per-hop counter deltas it caused. *)
let local_deltas chain f =
  let before = hop_counters chain in
  let v = f () in
  (v, diff_counts before (hop_counters chain))

(* The last server's view of a conversation round: every pair is one
   doubly-accessed drop besides the noise pairs, and every noise single
   and the odd client out one singly-accessed drop. *)
let check_histogram w chain =
  match (w.kind, Chain.observed_histogram chain) with
  | Dial _, _ -> ()
  | Conv, None -> check false "no dead-drop histogram after a conversation round"
  | Conv, Some h ->
      let mixing = chain_len - 1 in
      let noise_pairs = mixing * int_of_float (Float.ceil (w.mu /. 2.)) in
      let singles = mixing * int_of_float (Float.ceil w.mu) in
      let real_pairs = h.Deaddrop.m2 - noise_pairs in
      record "deaddrop.m1" (float_of_int h.Deaddrop.m1);
      record "deaddrop.m2" (float_of_int h.Deaddrop.m2);
      record "deaddrop.real_pairs" (float_of_int real_pairs);
      check (real_pairs = w.n / 2) "m2 - noise pairs = %d for %d pairs"
        real_pairs (w.n / 2);
      check (h.Deaddrop.m1 = singles + (w.n mod 2)) "m1 = %d, expected %d"
        h.Deaddrop.m1 (singles + (w.n mod 2))

(* One untraced round, timed from handing the first onion to Entry
   until Entry.demux has routed every reply; [prefix] names its series.
   Returns, if it succeeded, its time and the clients' time after it
   (checking replies; for dialing also fetching and scanning drops). *)
let plain_round w dep (b : batch) ~prefix =
  let ids = ref [||] and peak = ref 0 and produce_ms = ref 0. in
  let produce feed =
    let t0 = now () in
    let i, p = submit_all b ~sink:feed in
    ids := i;
    peak := p;
    produce_ms := ms_since t0
  in
  let go () =
    let t0 = now () in
    let result =
      match (dep, w.kind) with
      | Local c, Conv -> Chain.conversation_round_streamed c ~round:b.round ~produce
      | Local c, Dial { m; _ } ->
          Chain.dialing_round_streamed c ~round:b.round ~m ~produce
      | Daemons d, Conv ->
          Remote.conversation_round_streamed d.remote ~round:b.round ~produce
      | Daemons _, Dial _ -> invalid_arg "dialing runs in process"
    in
    let result = Result.map (slot_aligned ~n:w.n !ids) result in
    (ms_since t0, result)
  in
  let round_ms, result =
    match dep with
    | Local c ->
        let v, counts = local_deltas c go in
        check_hops w counts;
        check_histogram w c;
        v
    | Daemons d ->
        let s = Remote.stats d.remote in
        let bo = s.Conn.bytes_out and bi = s.Conn.bytes_in
        and fo = s.Conn.frames_out and rc = s.Conn.reconnects in
        let (round_ms, _) as v = go () in
        let s = Remote.stats d.remote in
        let tcp name v = record (prefix ^ "tcp." ^ name) v in
        tcp "produce_ms" !produce_ms;
        tcp "wait_ms" (round_ms -. !produce_ms);
        tcp "bytes_out" (float_of_int (s.Conn.bytes_out - bo));
        tcp "bytes_in" (float_of_int (s.Conn.bytes_in - bi));
        tcp "frames_out" (float_of_int (s.Conn.frames_out - fo));
        tcp "reconnects" (float_of_int (s.Conn.reconnects - rc));
        v
  in
  check (!peak <= chunk) "entry buffered %d onions (chunk %d)" !peak chunk;
  match settle w dep b result with
  | Some o ->
      record (prefix ^ "round_ms") round_ms;
      record_outcome prefix o;
      Some (round_ms, o.verify_ms +. o.fetch_ms +. o.scan_ms)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Traced rounds                                                       *)
(* ------------------------------------------------------------------ *)

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* The spans inside the round window, whose self times should add up to
   the round. *)
let inside =
  [ "entry.submit"; "rpc.encode"; "rpc.decode" ]
  @ List.concat_map
      (fun i ->
        List.map (Printf.sprintf "hop%d.%s" i)
          [ "peel"; "forward"; "exchange"; "backward" ])
      (List.init chain_len Fun.id)

(* Per span name, the time its spans spent outside their children. *)
let self_times spans =
  let children = Hashtbl.create 16 and by_name = Hashtbl.create 16 in
  List.iter
    (fun s -> Option.iter (fun p -> add children p s.Trace.dur_ms) s.Trace.parent)
    spans;
  List.iter
    (fun s ->
      add by_name s.Trace.name
        (s.Trace.dur_ms
        -. Option.value ~default:0. (Hashtbl.find_opt children s.Trace.id)))
    spans;
  by_name

(* One in-process round driven hop by hop through the chain's own
   servers, reproducing the streamed relay — entry parts into hop 0,
   batch parts between hops, results frames back up — with a span
   around each public call.  Returns the replies, the entry's peak
   buffer and the bytes framed. *)
let traced_local_round w tr chain (b : batch) ~index =
  let round = b.round in
  let span name f = Trace.with_span tr ~name ~round:index f in
  let hop i stem = Printf.sprintf "hop%d.%s" i stem in
  let srv = Chain.server chain in
  let m = match w.kind with Dial { m; _ } -> m | Conv -> 0 in
  let dialing = dialing w in
  let wire = ref 0 in
  (* One frame across one link, its size checked against the codec's
     own accounting. *)
  let cross msg ~expect =
    let frame = span "rpc.encode" (fun () -> Rpc.encode msg) in
    check (Bytes.length frame = expect) "frame of %d bytes, predicted %d"
      (Bytes.length frame) expect;
    wire := !wire + Bytes.length frame;
    match span "rpc.decode" (fun () -> Rpc.decode frame) with
    | Ok msg -> msg
    | Error e -> failwith ("rpc: " ^ e)
  in
  let batch_bytes size items =
    let count = Array.length items in
    size ~count ~item_len:(if count = 0 then 0 else Bytes.length items.(0))
  in
  let feed i stream ~seq ~last onions =
    let msg, expect =
      if dialing then
        ( Rpc.Dial_batch_part { round; m; seq; last; onions },
          part_header + batch_bytes Rpc.dial_batch_bytes onions )
      else
        ( Rpc.Conv_batch_part { round; seq; last; onions },
          part_header + batch_bytes Rpc.conv_batch_bytes onions )
    in
    match cross msg ~expect with
    | Rpc.Conv_batch_part { onions; _ } | Rpc.Dial_batch_part { onions; _ } ->
        span (hop i "peel") (fun () -> Server.stream_feed (srv i) stream onions)
    | _ -> failwith "rpc: not a batch part"
  in
  let results replies =
    let msg =
      if dialing then Rpc.Dial_results { round; replies }
      else Rpc.Conv_results { round; replies }
    in
    (* A results frame is laid out like a conversation batch. *)
    match cross msg ~expect:(batch_bytes Rpc.conv_batch_bytes replies) with
    | Rpc.Conv_results { replies; _ } | Rpc.Dial_results { replies; _ } -> replies
    | _ -> failwith "rpc: not a results frame"
  in
  let open_stream i =
    if dialing then Server.dial_stream (srv i) ~round
    else Server.conv_stream (srv i) ~round
  in
  let last = chain_len - 1 in
  let rec descend i stream =
    if i = last then
      span (hop i "exchange") (fun () ->
          if dialing then Server.dial_finish_deliver (srv i) stream ~m
          else Server.conv_finish_exchange (srv i) stream)
    else begin
      let out =
        span (hop i "forward") (fun () ->
            if dialing then Server.dial_finish_forward (srv i) stream ~m
            else Server.conv_finish_forward (srv i) stream)
      in
      let next = open_stream (i + 1) in
      let parts = Rpc.split_parts ~chunk out in
      Array.iteri
        (fun seq p -> feed (i + 1) next ~seq ~last:(seq = Array.length parts - 1) p)
        parts;
      let below = results (descend (i + 1) next) in
      span (hop i "backward") (fun () ->
          if dialing then Server.dial_backward (srv i) ~round below
          else Server.conv_backward (srv i) ~round below)
    end
  in
  let replies, peak =
    span "round" (fun () ->
        Trace.annotate tr "protocol_round" (string_of_int round);
        let s0 = open_stream 0 in
        let seq = ref 0 in
        let ids, peak =
          span "entry.submit" (fun () ->
              submit_all b ~sink:(fun c ->
                  (* Entry parts never close the stream; the collector's
                     close does, as in the chain's streamed ingress. *)
                  feed 0 s0 ~seq:!seq ~last:false c;
                  incr seq))
        in
        let replies = descend 0 s0 in
        (span "entry.submit" (fun () -> slot_aligned ~n:w.n ids replies), peak))
  in
  (Ok replies, peak, !wire)

(* The coordinator's side of a traced TCP round: the round window and
   the entry intake (which includes the Remote link's framing and send). *)
let traced_tcp_round w tr d (b : batch) ~index =
  let span name f = Trace.with_span tr ~name ~round:index f in
  let s = Remote.stats d.remote in
  let bytes0 = s.Conn.bytes_in + s.Conn.bytes_out in
  let ids = ref [||] and peak = ref 0 in
  let result =
    span "round" (fun () ->
        let result =
          Remote.conversation_round_streamed d.remote ~round:b.round
            ~produce:(fun feed ->
              span "entry.submit" (fun () ->
                  let i, p = submit_all b ~sink:feed in
                  ids := i;
                  peak := p))
        in
        span "entry.submit" (fun () -> Result.map (slot_aligned ~n:w.n !ids) result))
  in
  let s = Remote.stats d.remote in
  (result, !peak, s.Conn.bytes_in + s.Conn.bytes_out - bytes0)

(* The daemons' stage times from the traces they write when they shut
   down.  Every stage span is a child of the daemon's span for the round
   (its "hop" span).  Per round it sums them into the hop metrics: peel;
   at a mixing hop, noise and shuffle forward and unpeel and reseal
   back; at the last hop, everything after peel.  The first round is the
   warm-up and is dropped. *)
let record_daemon_stages paths =
  Array.iteri
    (fun i path ->
      let last = i = chain_len - 1 in
      let stem = function
        | "peel" -> "peel"
        | _ when last -> "exchange"
        | "noise" | "shuffle" -> "forward"
        | _ -> "backward"
      in
      let rounds = ref [] and stages = Hashtbl.create 256 in
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.iter (fun line ->
             match Json.parse line with
             | Error _ -> ()
             | Ok j -> (
                 let num k = Option.bind (Json.member k j) Json.to_float in
                 match (Option.bind (Json.member "name" j) Json.to_str, num "parent") with
                 | Some "hop", _ -> rounds := num "id" :: !rounds
                 | Some name, Some parent ->
                     add stages (parent, stem name)
                       (Option.value ~default:0. (num "dur_ms"))
                 | _ -> ()));
      Sys.remove path;
      List.iteri
        (fun k id ->
          Option.iter
            (fun id ->
              if k > 0 then
                List.iter
                  (fun s ->
                    record
                      (Printf.sprintf "traced.hop%d.%s" i s)
                      (Option.value ~default:0. (Hashtbl.find_opt stages (id, s))))
                  (if last then [ "peel"; "exchange" ] else [ "peel"; "forward"; "backward" ]))
            id)
        (List.rev !rounds))
    paths

(* ------------------------------------------------------------------ *)
(* Crypto micro-benchmarks                                             *)
(* ------------------------------------------------------------------ *)

(* A short slice of each crypto primitive, run once per traced round so
   that the rates see the same host conditions as the rounds. *)
let crypto_slice =
  let scalar = Drbg.bytes ~rng:(Drbg.of_string "bench-x25519") 32 in
  let point = Curve25519.scalarmult_base scalar in
  let key = Bytes.make Aead.key_len 'k' in
  let nonce = Aead.nonce_of ~domain:1 ~counter:1 in
  let payload = Bytes.make Types.exchange_payload_len 'p' in
  let rate k f =
    let t0 = now () in
    for _ = 1 to k do ignore (Sys.opaque_identity (f ())) done;
    float_of_int k /. (now () -. t0)
  in
  fun () ->
    record "x25519.ops_per_sec" (rate 10 (fun () -> Curve25519.scalarmult ~scalar ~point));
    record "x25519_base.ops_per_sec" (rate 10 (fun () -> Curve25519.scalarmult_base scalar));
    record "aead.seal_mb_per_sec"
      (rate 100 (fun () -> Aead.seal ~key ~nonce payload)
      *. float_of_int (Bytes.length payload) /. 1e6)

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

type opts = {
  seed : string;
  seconds : float;
  trace : bool;
  smoke : bool;  (** 64 clients, 3 rounds, whatever [seconds] says *)
  trace_file : string option;
}

(* Run [f 0], [f 1], ... until [seconds] have passed and at least
   [least] rounds are done (three in a smoke run). *)
let repeat opts ~least f =
  if opts.smoke then for i = 0 to 2 do f i done
  else
    let t0 = now () and count = ref 0 in
    while
      (now () -. t0 < opts.seconds || !count < least) && now () -. t0 < max_run_s
    do
      f !count;
      incr count
    done

(* The batch of the [i]th round: a freshly built one every [refresh]
   rounds, with its build time as the clients' cost, else the last one. *)
let batch_source client ~pks =
  let round = ref 0 and current = ref None in
  fun i ->
    match !current with
    | Some b when i mod refresh <> 0 -> (b, None)
    | _ ->
        incr round;
        let t0 = now () in
        let b = client ~round:!round ~pks in
        current := Some b;
        (b, Some (ms_since t0))

(* A gauge sample, kept as a series for the record. *)
let gauge () =
  let g = Gauge.sample () in
  record "host.gauge_ms" g;
  g

(* Scale of a span that lies between gauge samples [g0] and [g1]. *)
let to_reference g0 g1 = Gauge.nominal_ms /. ((g0 +. g1) /. 2.)

type tracer = { tr : Trace.t; mutable index : int }

(* A traced round of the batch the untraced round [untraced_ms] just
   ran.  In process, its residual is that round's time minus the self
   times of the spans inside the traced round's window: the two run
   back to back, so the host's speed drifts cancel.  The daemons' stage
   times come from their own traces when the run ends. *)
let traced_round w t d (b : batch) ~untraced_ms =
  t.index <- t.index + 1;
  let k0 = Trace.span_count t.tr in
  let t0 = now () in
  let result, peak, wire =
    match d with
    | Local c ->
        let v, counts =
          local_deltas c (fun () -> traced_local_round w t.tr c b ~index:t.index)
        in
        check_hops w counts;
        v
    | Daemons dm -> traced_tcp_round w t.tr dm b ~index:t.index
  in
  let round_ms = ms_since t0 in
  let self = self_times (List.filteri (fun i _ -> i >= k0) (Trace.spans t.tr)) in
  Hashtbl.iter (fun name v -> record ("traced." ^ name) v) self;
  if w.deploy = In_process then
    record "residual_ms"
      (untraced_ms
      -. List.fold_left
           (fun acc s -> acc +. Option.value ~default:0. (Hashtbl.find_opt self s))
           0. inside);
  check (peak <= chunk) "entry buffered %d onions (chunk %d)" peak chunk;
  record "trace.round_ms" round_ms;
  record "rpc.wire_bytes" (float_of_int wire);
  record "entry.peak_buffered" (float_of_int peak);
  match settle w d b result with
  | Some o ->
      record_outcome "traced." o;
      record "dh.client_ops"
        (float_of_int
           (Stats.client_dh ~dialing:(dialing w) ~chain_len ~n:w.n ~scanned:o.scanned))
  | None -> ()

(* The §8.2 accounting: the servers' X25519 work, predicted from the
   planned noise (which every in-process round checks exactly), spread
   over the cores they can use, against the measured round. *)
let finish_trace w opts t d =
  (match d with Local c -> check_histogram w c | Daemons _ -> ());
  let server_ops =
    float_of_int (Stats.server_dh ~dialing:(dialing w) ~n:w.n ~noise:(planned_noise w))
  in
  record "dh.server_ops" server_ops;
  let parallel =
    match d with
    | Local c -> Chain.jobs c
    | Daemons _ -> min chain_len (Domain.recommended_domain_count ())
  in
  Option.iter
    (fun x25519 ->
      let lower_bound_ms = 1000. *. server_ops /. (x25519 *. float_of_int parallel) in
      record "dh.lower_bound_ms" lower_bound_ms;
      Option.iter
        (fun r -> record "dh.overhead_x" (r /. lower_bound_ms))
        (median_of "round_ms"))
    (median_of "x25519.ops_per_sec");
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc (Trace.to_jsonl t.tr)))
    opts.trace_file

let make_client w ~seed =
  match w.kind with
  | Conv -> conv_client ~seed ~n:w.n
  | Dial { m; callers } -> dial_client ~seed ~n:w.n ~m ~callers

(* Set up [setups] times (the last deployment serves the run), one
   warm-up round, then the timed rounds.  Each timed round (with the
   clients' checks after it), each batch build and each set-up lies
   between two gauge samples.  With [trace], each
   timed round is followed by a traced round of the same batch and a
   crypto slice, so the untraced and traced numbers see the same host
   conditions.  Returns the servers' peak RSS in kB. *)
let run_workload w opts =
  let seed = "bench-" ^ opts.seed in
  let current = ref None in
  for _ = 1 to setups do
    Option.iter (fun (d, _) -> teardown d) !current;
    current := None;
    let g0 = gauge () in
    let t0 = now () in
    let client = make_client w ~seed in
    let d = deploy w ~seed ~traced:opts.trace in
    let s = now () -. t0 in
    current := Some (d, client);
    record "setup_s" s;
    (* Spawning daemons is mostly waiting on the kernel and on other
       processes, which the gauge does not predict; only this process's
       own set-up is scaled. *)
    let g1 = gauge () in
    record "ref.setup_s" (if w.deploy = Tcp then s else s *. to_reference g0 g1)
  done;
  let d, client = Option.get !current in
  let t =
    if opts.trace then Some { tr = Trace.create ~origin:0 (); index = 0 } else None
  in
  let rss_kb =
    Fun.protect
      ~finally:(fun () -> teardown d)
      (fun () ->
        let next = batch_source client ~pks:(public_keys d) in
        ignore (plain_round w d (fst (next 0)) ~prefix:"warmup.");
        let g = ref (gauge ()) in
        repeat opts
          ~least:(if opts.trace then min_traced else min_timed)
          (fun i ->
            let b, build_ms = next i in
            Option.iter
              (fun ms ->
                let g1 = gauge () in
                record "build_ms" ms;
                record "ref.build_ms" (ms *. to_reference !g g1);
                g := g1)
              build_ms;
            let round = plain_round w d b ~prefix:"" in
            let g0 = !g and g1 = gauge () in
            g := g1;
            let scale = to_reference g0 g1 in
            Option.iter
              (fun (round_ms, client_ms) ->
                record "ref.round_ms" (round_ms *. scale);
                record "ref.client_ms" (client_ms *. scale);
                Option.iter
                  (fun t ->
                    traced_round w t d b ~untraced_ms:round_ms;
                    crypto_slice ();
                    g := gauge ())
                  t)
              round);
        Option.iter (fun t -> finish_trace w opts t d) t;
        server_rss_kb d)
  in
  (match d with
  | Daemons { traces = Some paths; _ } -> record_daemon_stages paths
  | _ -> ());
  rss_kb

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let msgs_per_sec (w : workload) = function
  | [] -> None
  | rounds ->
      Some
        (float_of_int (w.n * List.length rounds)
        /. (List.fold_left ( +. ) 0. rounds /. 1000.))

(* End-to-end metrics, from the untraced timed rounds, at the reference
   speed. *)
let end_to_end (w : workload) ~rss_kb =
  let rounds = samples "ref.round_ms" in
  [
    ("round_ms.p50", median_of "ref.round_ms");
    ( "round_ms.p75",
      if Stats.top_percentile (List.length rounds) >= 75 then
        Some (Stats.percentile rounds 75)
      else None );
    ("msgs_per_sec", msgs_per_sec w rounds);
    ( "client_us_per_msg",
      Option.bind (median_of "ref.build_ms") (fun build ->
          Option.map
            (fun post -> 1000. *. (build +. post) /. float_of_int w.n)
            (median_of "ref.client_ms")) );
    ("setup_s", median_of "ref.setup_s");
    ("peak_rss_mb", Some (float_of_int rss_kb /. 1024.));
  ]

(* Per-layer metrics, from the traced rounds. *)
let per_layer () =
  let traced s = median_of ("traced." ^ s) in
  List.map
    (fun (s : Stats.spec) ->
      ( s.name,
        match s.name with
        | "loadgen.build_ms" -> median_of "build_ms"
        | "loadgen.verify_ms" -> traced "verify_ms"
        | name
          when Filename.check_suffix name "_ms"
               && List.mem (Filename.chop_suffix name "_ms") inside ->
            traced (Filename.chop_suffix name "_ms")
        | name -> median_of name ))
    Stats.per_layer

(* Printed but not tracked: the wall-clock times and the gauge, and the
   counts and timings only some workloads have. *)
let extras (w : workload) =
  let m ?series name unit =
    Option.map (fun v -> (name, v, unit))
      (median_of (Option.value ~default:name series))
  in
  let count name s = Some (name, float_of_int (List.length (samples s)), "count") in
  let per_hop stem =
    List.init chain_len (fun i -> m (Printf.sprintf "hop%d.%s" i stem) "count")
  in
  List.filter_map Fun.id
    ([
       count "rounds" "round_ms";
       count "traced_rounds" "trace.round_ms";
       m "wall.round_ms.p50" "ms" ~series:"round_ms";
       Option.map
         (fun v -> ("wall.msgs_per_sec", v, "msgs/s"))
         (msgs_per_sec w (samples "round_ms"));
       m "wall.setup_s" "s" ~series:"setup_s";
       m "host.gauge_ms" "ms";
       m "trace.round_ms" "ms";
       m "residual_ms" "ms";
       m "rpc.encode_ms" "ms" ~series:"traced.rpc.encode";
       m "rpc.decode_ms" "ms" ~series:"traced.rpc.decode";
       m "deaddrop.m1" "count";
       m "deaddrop.m2" "count";
       m "deaddrop.real_pairs" "count";
     ]
    @ per_hop "onions_in" @ per_hop "noise_out" @ per_hop "invalid"
    @ (if dialing w then
         [ m "dial.fetch_ms" "ms" ~series:"fetch_ms";
           m "dial.scan_ms" "ms" ~series:"scan_ms";
           m "dial.drop_kb" "kB" ~series:"drop_kb" ]
       else [])
    @
    match w.deploy with
    | Tcp ->
        List.map
          (fun (name, unit) -> m name unit)
          [ ("tcp.produce_ms", "ms"); ("tcp.wait_ms", "ms"); ("tcp.bytes_out", "B");
            ("tcp.bytes_in", "B"); ("tcp.frames_out", "count");
            ("tcp.reconnects", "count") ]
    | In_process -> [])

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  ^ "}"

let result_line ~correct ~attempted ~failed ~metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (json_metrics metrics)

let unit_of name =
  match
    List.find_opt
      (fun (s : Stats.spec) -> s.name = name)
      (Stats.end_to_end @ Stats.per_layer)
  with
  | Some s -> s.unit
  | None -> "count"

(* Run one workload in this process; print one [workload metric value
   unit] line per metric, then the result line (tracked metrics only). *)
let single (w : workload) opts =
  let w = if opts.smoke then { w with n = 64 } else w in
  let rss_kb = run_workload w opts in
  let tracked = if opts.trace then per_layer () else end_to_end w ~rss_kb in
  let tracked =
    List.filter_map
      (fun (k, v) ->
        match v with
        | Some v when Float.is_finite v -> Some (k, v, unit_of k)
        | _ ->
            check false "metric %s was not measured" k;
            None)
      tracked
  in
  (* The accounting must add up, once there are enough traced rounds for
     a median to mean something. *)
  (match (median_of "round_ms", median_of "residual_ms") with
  | Some r, Some res
    when w.deploy = In_process && List.length (samples "residual_ms") >= min_traced ->
      check (Float.abs res <= 0.15 *. r)
        "residual %.1f ms is above 15%% of the %.1f ms median round" res r
  | _ -> ());
  let all = tracked @ extras w in
  List.iter (fun (k, v, unit) -> Printf.printf "%s %s %.6g %s\n" w.name k v unit) all;
  let correct = !problems = 0 && !failed = 0 in
  print_endline
    (result_line ~correct ~attempted:!attempted ~failed:!failed ~metrics:tracked);
  { correct; attempted = !attempted; failed = !failed; metrics = all }

(* ------------------------------------------------------------------ *)
(* Every workload, each in a fresh process                             *)
(* ------------------------------------------------------------------ *)

let trace_file_of out (w : workload) = Printf.sprintf "%s.%s.trace.jsonl" out w.name

(* Run one workload in a child process (so peak RSS and GC state start
   fresh), echo its output, and collect its metric and result lines. *)
let child (w : workload) opts ~trace ~out =
  let args =
    [ Sys.executable_name; "--workload"; w.name; "--seed"; opts.seed;
      "--seconds"; Printf.sprintf "%g" opts.seconds;
      "--trace"; (if trace then "1" else "0") ]
    @ (if opts.smoke then [ "--smoke" ] else [])
    @
    match out with
    | Some f when trace -> [ "--trace-file"; trace_file_of f w ]
    | _ -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let metrics = ref [] and last = ref "" in
  let rec read () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
        print_endline line;
        last := line;
        (match String.split_on_char ' ' line with
        | [ wl; name; v; unit ] when wl = w.name ->
            Option.iter
              (fun v -> metrics := (name, v, unit) :: !metrics)
              (float_of_string_opt v)
        | _ -> ());
        read ()
  in
  read ();
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let result = Json.parse !last in
  if Result.is_error result then
    prerr_endline ("benchmark: " ^ w.name ^ " printed no result line");
  let field name conv =
    match result with Ok j -> Option.bind (Json.member name j) conv | Error _ -> None
  in
  {
    correct = status = Unix.WEXITED 0 && field "correct" Json.to_bool = Some true;
    attempted = Option.value ~default:0 (field "attempted" Json.to_int);
    failed = Option.value ~default:0 (field "failed" Json.to_int);
    metrics = List.rev !metrics;
  }

let write_out path opts results =
  let workload (name, r) =
    Printf.sprintf "%S: %s" name
      (result_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed
         ~metrics:r.metrics)
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\"benchmark\": \"vuvuzela\", \"seed\": %S, \"host_cores\": %d, \
         \"jobs\": %d, \"workloads\": {%s}}\n"
        opts.seed (Domain.recommended_domain_count ()) jobs
        (String.concat ", " (List.map workload results)))

let all opts ~traces ~out =
  let results =
    List.map
      (fun w ->
        let runs = List.map (fun trace -> child w opts ~trace ~out) traces in
        ( w.name,
          {
            correct = List.for_all (fun r -> r.correct) runs;
            attempted = List.fold_left (fun a r -> a + r.attempted) 0 runs;
            failed = List.fold_left (fun a r -> a + r.failed) 0 runs;
            (* Both runs print the extras; keep the untraced run's. *)
            metrics =
              List.fold_left
                (fun acc (k, v, u) ->
                  if List.exists (fun (k', _, _) -> k' = k) acc then acc
                  else acc @ [ (k, v, u) ])
                []
                (List.concat_map (fun r -> r.metrics) runs);
          } ))
      workloads
  in
  let correct = List.for_all (fun (_, r) -> r.correct) results in
  print_endline
    (result_line ~correct
       ~attempted:(List.fold_left (fun a (_, r) -> a + r.attempted) 0 results)
       ~failed:(List.fold_left (fun a (_, r) -> a + r.failed) 0 results)
       ~metrics:[]);
  results

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let nproc = Domain.recommended_domain_count () in
  let workload = ref None and seed = ref "1" and seconds = ref 25.
  and trace = ref None and out = ref None and smoke = ref false
  and trace_file = ref None in
  let spec =
    [
      ( "--workload", Arg.String (fun s -> workload := Some s),
        "NAME run one workload in this process: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads) );
      ("--seed", Arg.Set_string seed, "S seed of every input (default 1)");
      ("--seconds", Arg.Set_float seconds, "T timed seconds per run (default 25)");
      ( "--trace", Arg.Int (fun t -> trace := Some (t <> 0)),
        "0|1 end-to-end metrics (0) or the traced per-layer run (1); \
         without --workload, both by default" );
      ( "--out", Arg.String (fun s -> out := Some s),
        "F write results to F and each traced run's spans to \
         F.<workload>.trace.jsonl" );
      ("--smoke", Arg.Set smoke, " 64 clients, 3 rounds, traced; every workload by default");
      ("--trace-file", Arg.String (fun s -> trace_file := Some s), "F spans of a traced run");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "run.exe [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--out F]";
  if !smoke then trace := Some true;
  (match Stats.check_domains ~jobs ~nproc with
  | Ok () -> ()
  | Error e ->
      prerr_endline ("benchmark: refusing to start: " ^ e);
      exit 2);
  let opts =
    { seed = !seed; seconds = !seconds; trace = Option.value ~default:false !trace;
      smoke = !smoke; trace_file = !trace_file }
  in
  match
    match !workload with
    | None ->
        all opts ~out:!out
          ~traces:(match !trace with Some t -> [ t ] | None -> [ false; true ])
    | Some name -> (
        match List.find_opt (fun w -> w.name = name) workloads with
        | None -> failwith ("unknown workload " ^ name)
        | Some w ->
            let trace_file =
              match (opts.trace_file, !out) with
              | None, Some f when opts.trace -> Some (trace_file_of f w)
              | f, _ -> f
            in
            [ (name, single w { opts with trace_file }) ])
  with
  | exception e ->
      prerr_endline ("benchmark: " ^ Printexc.to_string e);
      exit 2
  | results ->
      Option.iter (fun path -> write_out path opts results) !out;
      exit (if List.for_all (fun (_, r) -> r.correct) results then 0 else 1)
