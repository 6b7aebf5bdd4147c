(* The telemetry subsystem: registry semantics (bucketing, quantile
   estimation, exposition), the span tracer and its JSONL schema, the
   privacy-budget ledger against the DP composition theorem directly,
   and the two deployment-level contracts — full stage coverage per
   (round, server), and bit-identical rounds with telemetry on or off at
   any job count. *)

open Vuvuzela_dp
open Vuvuzela
module T = Vuvuzela_telemetry
module Metrics = T.Metrics
module Trace = T.Trace
module Ledger = T.Ledger
module Telemetry = T.Telemetry

let feq = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~labels:[ ("kind", "conv") ] "requests_total" in
  Metrics.inc c;
  Metrics.inc ~by:2.5 c;
  (* Same (name, labels) → the same handle. *)
  Metrics.inc (Metrics.counter reg ~labels:[ ("kind", "conv") ] "requests_total");
  Alcotest.check feq "counter accumulates" 4.5 (Metrics.counter_value c);
  (* Different labels → a different series. *)
  Alcotest.check feq "label isolation" 0.
    (Metrics.counter_value
       (Metrics.counter reg ~labels:[ ("kind", "dial") ] "requests_total"));
  Alcotest.check_raises "counters are monotone"
    (Invalid_argument "Metrics.inc: counters are monotone") (fun () ->
      Metrics.inc ~by:(-1.) c);
  let g = Metrics.gauge reg "budget_eps" in
  Metrics.set g 3.5;
  Metrics.set g 1.25;
  Alcotest.check feq "gauge is last-write" 1.25 (Metrics.gauge_value g);
  Alcotest.check_raises "type clash rejected"
    (Invalid_argument "Metrics: budget_eps is not a counter") (fun () ->
      ignore (Metrics.counter reg "budget_eps"))

(* Exact quantile values on a hand-built distribution, following the
   documented estimator: rank q·count, linear interpolation inside the
   bucket (from 0 in the first bucket), +inf degrades to the largest
   finite bound. *)
let test_histogram_quantiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 1.; 2.; 4.; 8. |] "lat_ms" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.0; 3.5; 6.0; 20.0 ];
  Alcotest.(check int) "count" 6 (Metrics.hist_count h);
  Alcotest.check feq "sum" 34.5 (Metrics.hist_sum h);
  (* rank 3 lands in (2, 4] holding observations 3 and 4 cumulative:
     2 + (4-2)·(3-2)/2 = 3. *)
  Alcotest.check feq "p50" 3.0 (Metrics.quantile h 0.5);
  (* rank 1.5 lands in (1, 2]: 1 + 1·(1.5-1)/1 = 1.5. *)
  Alcotest.check feq "p25" 1.5 (Metrics.quantile h 0.25);
  (* rank 6 lands in the +inf bucket → largest finite bound. *)
  Alcotest.check feq "p100 degrades" 8.0 (Metrics.quantile h 1.0);
  Alcotest.check feq "p0 at bucket floor" 0.0 (Metrics.quantile h 0.0);
  (* A single-bucket histogram interpolates from 0. *)
  let one = Metrics.histogram reg ~buckets:[| 10. |] "one_bucket" in
  for _ = 1 to 4 do Metrics.observe one 5. done;
  Alcotest.check feq "single-bucket p50" 5.0 (Metrics.quantile one 0.5);
  Alcotest.check feq "empty histogram" 0.0
    (Metrics.quantile (Metrics.histogram reg ~buckets:[| 1. |] "empty") 0.5);
  Alcotest.check_raises "buckets must increase"
    (Invalid_argument "Metrics.histogram: bucket bounds must increase")
    (fun () -> ignore (Metrics.histogram reg ~buckets:[| 2.; 1. |] "bad"));
  Alcotest.check_raises "re-registration with other buckets"
    (Invalid_argument "Metrics: lat_ms re-registered with different buckets")
    (fun () -> ignore (Metrics.histogram reg ~buckets:[| 1. |] "lat_ms"))

let test_prometheus_exposition () =
  let reg = Metrics.create () in
  Metrics.inc ~by:3.
    (Metrics.counter reg ~help:"Requests seen" ~labels:[ ("kind", "conv") ]
       "requests_total");
  let h = Metrics.histogram reg ~buckets:[| 1.; 5. |] "lat_ms" in
  Metrics.observe h 0.5;
  Metrics.observe h 3.;
  Metrics.observe h 9.;
  let text = Metrics.to_prometheus reg in
  let expected =
    "# TYPE lat_ms histogram\n\
     lat_ms_bucket{le=\"1\"} 1\n\
     lat_ms_bucket{le=\"5\"} 2\n\
     lat_ms_bucket{le=\"+Inf\"} 3\n\
     lat_ms_sum 12.5\n\
     lat_ms_count 3\n\
     # HELP requests_total Requests seen\n\
     # TYPE requests_total counter\n\
     requests_total{kind=\"conv\"} 3\n"
  in
  Alcotest.(check string) "exposition" expected text;
  (* The JSON export parses back and carries the quantile estimates. *)
  match T.Json.parse (T.Json.to_string (Metrics.to_json reg)) with
  | Error e -> Alcotest.fail ("JSON export does not parse: " ^ e)
  | Ok json -> (
      match T.Json.member "histograms" json with
      | Some (T.Json.List [ hist ]) ->
          Alcotest.(check (option string)) "name" (Some "lat_ms")
            (Option.bind (T.Json.member "name" hist) T.Json.to_str);
          Alcotest.(check (option int)) "count" (Some 3)
            (Option.bind (T.Json.member "count" hist) T.Json.to_int)
      | _ -> Alcotest.fail "histograms missing from JSON export")

(* ------------------------------------------------------------------ *)
(* Span tracer                                                         *)
(* ------------------------------------------------------------------ *)

(* A fake clock makes durations exact. *)
let test_trace_nesting () =
  let now = ref 0. in
  let tr = Trace.create ~clock:(fun () -> !now) () in
  let root = Trace.begin_span tr ~name:"conv-round" ~round:1 () in
  now := 0.001;
  let child = Trace.begin_span tr ~name:"peel" ~round:1 ~server:0 () in
  Trace.annotate tr "fault.delay" "server=1";
  now := 0.004;
  Trace.end_span tr child;
  Trace.instant tr ~name:"exchange" ~round:1 ~server:0 ();
  now := 0.010;
  Trace.end_span tr root;
  match Trace.spans tr with
  | [ r; c; m ] ->
      Alcotest.(check (option int)) "root has no parent" None r.Trace.parent;
      Alcotest.(check (option int)) "child links to root" (Some r.Trace.id)
        c.Trace.parent;
      Alcotest.(check (option int)) "mark links to root" (Some r.Trace.id)
        m.Trace.parent;
      Alcotest.check feq "child duration" 3. c.Trace.dur_ms;
      Alcotest.check feq "mark is zero-duration" 0. m.Trace.dur_ms;
      Alcotest.check feq "root duration" 10. r.Trace.dur_ms;
      Alcotest.(check (list (pair string string)))
        "annotation on innermost open span"
        [ ("fault.delay", "server=1") ]
        c.Trace.annotations;
      (* The export validates against its own schema checker. *)
      (match Trace.validate_jsonl (Trace.to_jsonl tr) with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("export rejected: " ^ e))
  | spans ->
      Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_validate_rejects () =
  let reject name s =
    match Trace.validate_jsonl s with
    | Ok () -> Alcotest.failf "%s accepted" name
    | Error _ -> ()
  in
  reject "empty input" "";
  reject "not json" "hello\n";
  reject "missing fields" "{\"id\":0}\n";
  reject "dangling parent"
    "{\"id\":0,\"parent\":7,\"name\":\"x\",\"round\":1,\"server\":-1,\
     \"dialing\":false,\"start_ms\":0,\"dur_ms\":0,\"annotations\":{}}\n"

(* Cross-process parenting: a coordinator tracer and a "daemon" tracer
   whose hop span carries the coordinator's wire context.  After the
   merge every daemon span must reach the coordinator's round root
   through parent links alone, the export must still satisfy the schema
   checker, and a context whose trace id does not match the root's must
   be dropped rather than resolved. *)
let test_remote_span_merge () =
  let now = ref 0. in
  let clock () = !now in
  let coord = Trace.create ~clock ~trace_id:71 ~origin:0 () in
  let daemon = Trace.create ~clock ~trace_id:9999 ~origin:1 () in
  (* Coordinator: round root, context announced over the (simulated)
     wire exactly as [Remote.exchange] sends it. *)
  let root = Trace.begin_span coord ~name:"conv-round" ~round:1 () in
  let ctx =
    match Trace.decode_context (Trace.encode_context (Trace.context_of coord root)) with
    | Some c -> c
    | None -> Alcotest.fail "wire context did not survive the codec"
  in
  (* Daemon: hop span rooted at the remote context, one stage under it. *)
  let hop = Trace.begin_remote_span daemon ~name:"hop" ~round:1 ~server:0 ~remote:ctx () in
  now := 0.002;
  let peel = Trace.begin_span daemon ~name:"peel" ~round:1 ~server:0 () in
  now := 0.003;
  Trace.end_span daemon peel;
  Trace.end_span daemon hop;
  (* A second daemon whose context belongs to some other trace: its hop
     must come out parentless, not mislinked. *)
  let stray = Trace.create ~clock ~trace_id:4242 ~origin:2 () in
  let stray_hop =
    Trace.begin_remote_span stray ~name:"hop" ~round:1 ~server:1
      ~remote:{ Trace.trace = 123456; origin = 0; span = 0 } ()
  in
  Trace.end_span stray stray_hop;
  now := 0.010;
  Trace.end_span coord root;
  let merged =
    match
      Trace.merge_jsonl
        [
          ("coordinator", Trace.to_jsonl coord);
          ("server-0", Trace.to_jsonl daemon);
          ("server-1", Trace.to_jsonl stray);
        ]
    with
    | Ok s -> s
    | Error e -> Alcotest.fail ("merge failed: " ^ e)
  in
  (match Trace.validate_jsonl merged with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("merged trace rejected: " ^ e));
  let lines =
    String.split_on_char '\n' merged
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           match T.Json.parse l with
           | Ok j -> j
           | Error e -> Alcotest.fail ("merged line does not parse: " ^ e))
  in
  let field name j = Option.bind (T.Json.member name j) T.Json.to_int in
  let named want =
    List.filter
      (fun j ->
        Option.bind (T.Json.member "name" j) T.Json.to_str = Some want)
      lines
  in
  let root_id =
    match named "conv-round" with
    | [ j ] -> Option.get (field "id" j)
    | _ -> Alcotest.fail "expected exactly one round root"
  in
  (match named "hop" with
  | [ a; b ] ->
      let by_process want =
        if Option.bind (T.Json.member "process" a) T.Json.to_str = Some want
        then a else b
      in
      Alcotest.(check (option int)) "hop parents into the round root"
        (Some root_id)
        (field "parent" (by_process "server-0"));
      Alcotest.(check (option int)) "foreign-trace context dropped" None
        (field "parent" (by_process "server-1"));
      Alcotest.(check bool) "ctx back-reference consumed" true
        (T.Json.member "ctx" (by_process "server-0") = None);
      (* Transitivity: the stage span reaches the root via the hop. *)
      let hop_id = Option.get (field "id" (by_process "server-0")) in
      (match named "peel" with
      | [ p ] ->
          Alcotest.(check (option int)) "stage parents into the hop"
            (Some hop_id) (field "parent" p)
      | _ -> Alcotest.fail "expected exactly one peel span")
  | hops -> Alcotest.failf "expected 2 hop spans, got %d" (List.length hops))

(* The exposition satellite: scrape output is deterministic (families
   and label sets sorted, registration order irrelevant) and label
   values escape exactly the three characters the Prometheus text
   format names — backslash, double quote, newline. *)
let test_prometheus_deterministic_escaped () =
  let build order =
    let reg = Metrics.create () in
    List.iter
      (fun (name, labels) ->
        Metrics.inc (Metrics.counter reg ~labels name))
      order;
    Metrics.set (Metrics.gauge reg "a_gauge") 2.;
    Metrics.to_prometheus reg
  in
  let series =
    [
      ("zz_total", [ ("kind", "conv") ]);
      ("aa_total", [ ("path", "C:\\temp") ]);
      ("mm_total", [ ("detail", "he said \"hi\"\nbye") ]);
      ("zz_total", [ ("kind", "dial") ]);
    ]
  in
  let text = build series in
  Alcotest.(check string) "registration order is invisible" text
    (build (List.rev series));
  let expected =
    "# TYPE a_gauge gauge\n\
     a_gauge 2\n\
     # TYPE aa_total counter\n\
     aa_total{path=\"C:\\\\temp\"} 1\n\
     # TYPE mm_total counter\n\
     mm_total{detail=\"he said \\\"hi\\\"\\nbye\"} 1\n\
     # TYPE zz_total counter\n\
     zz_total{kind=\"conv\"} 1\n\
     zz_total{kind=\"dial\"} 1\n"
  in
  Alcotest.(check string) "golden exposition" expected text

(* ------------------------------------------------------------------ *)
(* Privacy-budget ledger vs the composition theorem                    *)
(* ------------------------------------------------------------------ *)

let conv_noise = Laplace.params ~mu:3. ~b:1.
let dial_noise = Laplace.params ~mu:2. ~b:1.

let test_ledger_matches_composition () =
  let conv = Mechanism.conversation conv_noise in
  let dial = Mechanism.dialing dial_noise in
  let ledger = Ledger.create ~conv ~dial () in
  let alice = Bytes.of_string "alice-pk" in
  for _ = 1 to 10 do ignore (Ledger.charge ledger ~client:alice ~dialing:false) done;
  for _ = 1 to 3 do ignore (Ledger.charge ledger ~client:alice ~dialing:true) done;
  Alcotest.(check (pair int int)) "rounds tracked" (10, 3)
    (Ledger.rounds ledger ~client:alice);
  let spent = Ledger.spent ledger ~client:alice in
  (* The ledger's spend is the closed-form Theorem 2 composition of each
     protocol's charged rounds, summed — pinned to 1e-9. *)
  let c = Composition.compose ~k:10 ~d:Composition.default_d conv in
  let g = Composition.compose ~k:3 ~d:Composition.default_d dial in
  Alcotest.check feq "eps matches Composition"
    (c.Mechanism.eps +. g.Mechanism.eps) spent.Mechanism.eps;
  Alcotest.check feq "delta matches Composition"
    (c.Mechanism.delta +. g.Mechanism.delta) spent.Mechanism.delta;
  (* A never-seen client has spent exactly nothing. *)
  let zero = Ledger.spent ledger ~client:(Bytes.of_string "nobody") in
  Alcotest.check feq "unseen eps" 0. zero.Mechanism.eps;
  Alcotest.check feq "unseen delta" 0. zero.Mechanism.delta;
  Alcotest.check feq "worst is alice" spent.Mechanism.eps
    (Ledger.worst ledger).Mechanism.eps

let test_ledger_monotone_and_warns () =
  let conv = Mechanism.conversation conv_noise in
  let dial = Mechanism.dialing dial_noise in
  (* Warn once eps' crosses twice the single-round spend. *)
  let warn = 2.5 *. conv.Mechanism.eps in
  let ledger = Ledger.create ~warn_eps:warn ~conv ~dial () in
  let bob = Bytes.of_string "bob-pk" in
  let crossings = ref 0 in
  let prev = ref { Mechanism.eps = 0.; delta = 0. } in
  for i = 1 to 50 do
    if Ledger.charge ledger ~client:bob ~dialing:(i mod 5 = 0) then incr crossings;
    let s = Ledger.spent ledger ~client:bob in
    if s.Mechanism.eps < !prev.Mechanism.eps then
      Alcotest.failf "eps' decreased at round %d" i;
    if s.Mechanism.delta < !prev.Mechanism.delta then
      Alcotest.failf "delta' decreased at round %d" i;
    prev := s
  done;
  Alcotest.(check int) "warning fires exactly once" 1 !crossings;
  Alcotest.(check int) "over budget" 1 (Ledger.over_budget ledger);
  Alcotest.(check bool) "threshold really crossed" true
    (!prev.Mechanism.eps > warn)

(* ------------------------------------------------------------------ *)
(* Deployment wiring                                                   *)
(* ------------------------------------------------------------------ *)

let make_net ?telemetry ?fault_plan ?round_deadline_ms ?budget_warn ~jobs () =
  let opt f v cfg = match v with None -> cfg | Some v -> f v cfg in
  Network.of_config
    Network.Config.(
      default |> with_seed "tel-det" |> with_noise conv_noise
      |> with_dial_noise dial_noise |> with_noise_mode Noise.Sampled
      |> with_jobs jobs
      |> opt with_telemetry telemetry
      |> opt with_fault_plan fault_plan
      |> opt with_round_deadline_ms round_deadline_ms
      |> opt with_budget_warn budget_warn)

(* The same seeded workload as test_parallel's determinism check, with a
   dialing round in the schedule. *)
let run_deployment ?telemetry ~jobs () =
  let net = make_net ?telemetry ~jobs () in
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  let _idle =
    List.init 3 (fun i -> Network.connect ~seed:(Printf.sprintf "i%d" i) net)
  in
  Client.dial a ~callee_pk:(Client.public_key b);
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  Client.start_conversation b ~peer_pk:(Client.public_key a);
  Client.send a "telemetry must not perturb";
  Client.send b "the byte stream";
  let reports = Harness.run_schedule ~dial_every:2 net ~rounds:4 in
  let histogram =
    match Chain.observed_histogram (Network.chain net) with
    | Some h -> (h.Deaddrop.m1, h.Deaddrop.m2)
    | None -> (-1, -1)
  in
  let transcript =
    List.map
      (fun r ->
        Printf.sprintf "round=%d dialing=%b batch=%d wire=%d acks=%d [%s]"
          r.Network.round r.Network.dialing r.Network.batch_size
          r.Network.wire_bytes r.Network.confirmed_acks
          (String.concat "; "
             (List.concat_map
                (fun (c, evs) ->
                  List.map
                    (fun e ->
                      Vuvuzela_crypto.Bytes_util.to_hex (Client.public_key c)
                      ^ ":"
                      ^ Format.asprintf "%a" Harness.pp_event e)
                    evs)
                r.Network.events)))
      reports
  in
  Network.shutdown net;
  (histogram, transcript)

(* The acceptance contract: a seeded deployment is bit-identical with
   telemetry on or off, at jobs ∈ {1, 2, 4}. *)
let test_identical_with_and_without_telemetry () =
  let ref_h, ref_t = run_deployment ~jobs:1 () in
  Alcotest.(check bool) "events occurred" true
    (List.exists (fun line -> String.length line > 60) ref_t);
  List.iter
    (fun jobs ->
      let off = run_deployment ~jobs () in
      let tel = Telemetry.create () in
      let on = run_deployment ~telemetry:tel ~jobs () in
      Alcotest.(check (pair int int))
        (Printf.sprintf "histogram off jobs=%d" jobs)
        ref_h (fst off);
      Alcotest.(check (list string))
        (Printf.sprintf "transcript off jobs=%d" jobs)
        ref_t (snd off);
      Alcotest.(check (pair int int))
        (Printf.sprintf "histogram on jobs=%d" jobs)
        ref_h (fst on);
      Alcotest.(check (list string))
        (Printf.sprintf "transcript on jobs=%d" jobs)
        ref_t (snd on);
      Alcotest.(check bool)
        (Printf.sprintf "telemetry recorded spans jobs=%d" jobs)
        true
        (Trace.span_count (Telemetry.trace tel) > 0))
    [ 1; 2; 4 ]

(* Every (round, server) pair shows all six pipeline stages (real or
   zero-duration marker) and one hop span, all reaching that round's
   root span; the coordinator contributes client-build/client-decrypt;
   and the whole trace passes the JSONL schema checker. *)
let test_stage_coverage () =
  let tel = Telemetry.create () in
  ignore (run_deployment ~telemetry:tel ~jobs:2 ());
  let spans = Trace.spans (Telemetry.trace tel) in
  let stage_names s = List.map (fun sp -> sp.Trace.name) s in
  let rounds_of root_name =
    List.filter_map
      (fun sp -> if sp.Trace.name = root_name then Some sp.Trace.round else None)
      spans
  in
  let conv_rounds = rounds_of "conv-round" and dial_rounds = rounds_of "dial-round" in
  Alcotest.(check int) "conversation rounds traced" 4 (List.length conv_rounds);
  Alcotest.(check int) "dialing rounds traced" 2 (List.length dial_rounds);
  let check_coverage ~dialing rounds =
    List.iter
      (fun round ->
        for server = 0 to 2 do
          let here =
            List.filter
              (fun sp ->
                sp.Trace.round = round && sp.Trace.server = server
                && sp.Trace.dialing = dialing)
              spans
          in
          List.iter
            (fun stage ->
              if not (List.mem stage (stage_names here)) then
                Alcotest.failf "round %d server %d (dialing=%b): missing %s"
                  round server dialing stage)
            Telemetry.server_stages
        done;
        (* Client-side spans sit at server = -1 under the same round. *)
        List.iter
          (fun name ->
            if
              not
                (List.exists
                   (fun sp ->
                     sp.Trace.name = name && sp.Trace.round = round
                     && sp.Trace.dialing = dialing && sp.Trace.server = -1)
                   spans)
            then Alcotest.failf "round %d (dialing=%b): missing %s" round dialing name)
          [ "client-build"; "client-decrypt" ])
      rounds
  in
  check_coverage ~dialing:false conv_rounds;
  check_coverage ~dialing:true dial_rounds;
  (* Every server span reaches its round's root through its parents
     (stages hang off their server's hop span, each hop off the one
     upstream of it), and each server opens one hop span per round. *)
  let by_id = Hashtbl.create 256 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Trace.id sp) spans;
  let is_root sp = sp.Trace.name = "conv-round" || sp.Trace.name = "dial-round" in
  let rec root_of sp =
    match Option.bind sp.Trace.parent (Hashtbl.find_opt by_id) with
    | Some p when is_root p -> Some p
    | Some p -> root_of p
    | None -> None
  in
  List.iter
    (fun sp ->
      if sp.Trace.server >= 0 then
        match root_of sp with
        | Some root
          when root.Trace.round = sp.Trace.round
               && root.Trace.dialing = sp.Trace.dialing ->
            ()
        | _ ->
            Alcotest.failf "%s of server %d, round %d, not under its round root"
              sp.Trace.name sp.Trace.server sp.Trace.round)
    spans;
  List.iter
    (fun root ->
      if is_root root then
        for server = 0 to 2 do
          let hops =
            List.filter
              (fun sp ->
                sp.Trace.name = "hop" && sp.Trace.server = server
                && sp.Trace.round = root.Trace.round
                && sp.Trace.dialing = root.Trace.dialing)
              spans
          in
          Alcotest.(check int)
            (Printf.sprintf "hop spans of server %d in %s %d" server
               root.Trace.name root.Trace.round)
            1 (List.length hops)
        done)
    spans;
  (match Trace.validate_jsonl (Trace.to_jsonl (Telemetry.trace tel)) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("trace export invalid: " ^ e));
  (* And the registry counted the work: stage histograms exist for the
     real stages, requests flowed, rounds completed. *)
  let reg = Telemetry.metrics tel in
  Alcotest.(check bool) "peel stage observed" true
    (Metrics.hist_count
       (Metrics.histogram reg ~labels:[ ("stage", "peel") ] "vuvuzela_stage_ms")
    > 0);
  Alcotest.check feq "conv rounds counted" 4.
    (Metrics.counter_value
       (Metrics.counter reg ~labels:[ ("kind", "conv") ] "vuvuzela_rounds_total"));
  Alcotest.check feq "dial rounds counted" 2.
    (Metrics.counter_value
       (Metrics.counter reg ~labels:[ ("kind", "dial") ] "vuvuzela_rounds_total"))

(* The deployment's ledger: every participant is charged once per
   attempt, the gauges follow, and the spend equals the composition
   theorem applied to the deployment's actual noise parameters. *)
let test_deployment_ledger () =
  let tel = Telemetry.create () in
  let net = make_net ~telemetry:tel ~budget_warn:1e-3 ~jobs:1 () in
  let a = Network.connect ~seed:"a" net in
  let _b = Network.connect ~seed:"b" net in
  ignore (Harness.run_schedule ~dial_every:2 net ~rounds:4);
  Network.shutdown net;
  let ledger =
    match Telemetry.ledger tel with
    | Some l -> l
    | None -> Alcotest.fail "deployment created no ledger"
  in
  Alcotest.(check int) "both clients charged" 2 (Ledger.clients ledger);
  Alcotest.(check (pair int int)) "4 conv + 2 dial attempts" (4, 2)
    (Ledger.rounds ledger ~client:(Client.public_key a));
  let expected =
    let c =
      Composition.compose ~k:4 ~d:Composition.default_d
        (Mechanism.conversation conv_noise)
    and g =
      Composition.compose ~k:2 ~d:Composition.default_d
        (Mechanism.dialing dial_noise)
    in
    { Mechanism.eps = c.Mechanism.eps +. g.Mechanism.eps;
      delta = c.Mechanism.delta +. g.Mechanism.delta }
  in
  let spent = Ledger.spent ledger ~client:(Client.public_key a) in
  Alcotest.check feq "deployment eps matches Theorem 2" expected.Mechanism.eps
    spent.Mechanism.eps;
  Alcotest.check feq "deployment delta matches Theorem 2"
    expected.Mechanism.delta spent.Mechanism.delta;
  let reg = Telemetry.metrics tel in
  Alcotest.check feq "eps gauge follows the ledger" expected.Mechanism.eps
    (Metrics.gauge_value (Metrics.gauge reg "vuvuzela_budget_eps_max"));
  Alcotest.check feq "both clients over the tiny warn threshold" 2.
    (Metrics.gauge_value (Metrics.gauge reg "vuvuzela_budget_over_warn_clients"))

(* Satellite (f): injected [Delay_ms] is virtual — it reaches the
   supervisor's elapsed_ms (deadline accounting) and its own counter,
   but never the wall-clock latency histogram. *)
let test_injected_delay_excluded_from_latency () =
  let tel = Telemetry.create () in
  let plan =
    match Vuvuzela_faults.Fault.parse "delay(500)@1:1" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let net = make_net ~telemetry:tel ~fault_plan:plan ~jobs:1 () in
  let _a = Network.connect ~seed:"a" net in
  let _b = Network.connect ~seed:"b" net in
  let report = Network.run ~kind:Round.Conversation net in
  Network.shutdown net;
  Alcotest.(check int) "no retry needed" 1 report.Network.attempts;
  let reg = Telemetry.metrics tel in
  Alcotest.check feq "delay counter carries the stall" 500.
    (Metrics.counter_value
       (Metrics.counter reg "vuvuzela_injected_delay_ms_total"));
  Alcotest.check feq "fault counted by kind" 1.
    (Metrics.counter_value
       (Metrics.counter reg ~labels:[ ("kind", "delay") ]
          "vuvuzela_faults_injected_total"));
  let h =
    Metrics.histogram reg ~labels:[ ("kind", "conv") ] "vuvuzela_round_ms"
  in
  Alcotest.(check int) "one latency sample" 1 (Metrics.hist_count h);
  (* elapsed = wall + 500 exactly; the histogram recorded wall only. *)
  Alcotest.check (Alcotest.float 1e-6) "histogram excludes virtual delay"
    report.Network.elapsed_ms
    (Metrics.hist_sum h +. 500.);
  (* The fault left its mark on the trace. *)
  Alcotest.(check bool) "span annotated" true
    (List.exists
       (fun sp -> List.mem_assoc "fault.delay" sp.Trace.annotations)
       (Trace.spans (Telemetry.trace tel)))

(* A crash fault forces a retry: attempts/retries/aborts land in the
   counters and the recovered round still counts as completed. *)
let test_retry_counters () =
  let tel = Telemetry.create () in
  let plan =
    match Vuvuzela_faults.Fault.parse "crash@1:1" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let net = make_net ~telemetry:tel ~fault_plan:plan ~jobs:1 () in
  let a = Network.connect ~seed:"a" net in
  let _b = Network.connect ~seed:"b" net in
  let report = Network.run ~kind:Round.Conversation net in
  Network.shutdown net;
  Alcotest.(check int) "recovered on attempt 2" 2 report.Network.attempts;
  Alcotest.(check bool) "round succeeded" true (report.Network.failure = None);
  let reg = Telemetry.metrics tel in
  let v ?labels name =
    Metrics.counter_value (Metrics.counter reg ?labels name)
  in
  let conv = [ ("kind", "conv") ] in
  Alcotest.check feq "attempts" 2. (v ~labels:conv "vuvuzela_round_attempts_total");
  Alcotest.check feq "retries" 1. (v ~labels:conv "vuvuzela_round_retries_total");
  Alcotest.check feq "completions" 1. (v ~labels:conv "vuvuzela_rounds_total");
  Alcotest.check feq "no failures" 0. (v ~labels:conv "vuvuzela_round_failures_total");
  Alcotest.check feq "crash counted" 1.
    (v ~labels:[ ("kind", "crash") ] "vuvuzela_faults_injected_total");
  (* Both attempts charged the ledger — a retry redraws noise. *)
  match Telemetry.ledger tel with
  | Some ledger ->
      Alcotest.(check (pair int int)) "two conv charges" (2, 0)
        (Ledger.rounds ledger
           ~client:(Client.public_key a))
  | None -> Alcotest.fail "no ledger"

(* The digest's waterfall is the merged trace's tree: each [hop N] line's
   own block — the lines after it, deeper than it, outside the nested
   hop's block — holds that server's six stages, once each, whenever
   they began relative to the hops below. *)
let test_waterfall_hops_hold_their_stages () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vuvuzela-waterfall-%d" (Unix.getpid ()))
  in
  let net =
    Network.of_config
      Network.Config.(
        default |> with_seed "waterfall" |> with_n_servers 3
        |> with_telemetry (Telemetry.create ())
        |> with_obs_dir dir)
  in
  let a = Network.connect ~seed:"a" net in
  let b = Network.connect ~seed:"b" net in
  Client.start_conversation a ~peer_pk:(Client.public_key b);
  Client.start_conversation b ~peer_pk:(Client.public_key a);
  Client.send a "drawn as a tree";
  ignore (Network.run_rounds net 2);
  ignore (Network.run ~kind:Round.Dialing net);
  Network.shutdown net;
  let path = Filename.concat dir "digest.txt" in
  let digest = In_channel.with_open_bin path In_channel.input_all in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  let lines = String.split_on_char '\n' digest in
  let depth l = String.length l - String.length (String.trim l) in
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  let rec skip d = function
    | l :: rest when depth l > d -> skip d rest
    | rest -> rest
  in
  (* The names in a line's own block: deeper lines up to the first that
     is not, a nested hop's block left out. *)
  let rec own_block d acc = function
    | l :: rest when depth l > d -> (
        match words l with
        | _ :: "hop" :: _ -> own_block d acc (skip (depth l) rest)
        | _ :: name :: _ -> own_block d (name :: acc) rest
        | _ -> own_block d acc rest)
    | _ -> acc
  in
  let rec check_hops n = function
    | [] -> n
    | l :: rest -> (
        match words l with
        | _ :: "hop" :: i :: _ ->
            let names = own_block (depth l) [] rest in
            List.iter
              (fun stage ->
                Alcotest.(check int)
                  (Printf.sprintf "hop %s's block holds one %s" i stage)
                  1
                  (List.length (List.filter (( = ) stage) names)))
              [ "peel"; "noise"; "exchange"; "shuffle"; "unpeel"; "reseal" ];
            check_hops (n + 1) rest
        | _ -> check_hops n rest)
  in
  Alcotest.(check int) "a hop line per server and round" 9 (check_hops 0 lines)

let suite =
  let tc = Alcotest.test_case in
  ( "telemetry",
    [
      tc "counter and gauge semantics" `Quick test_counter_gauge;
      tc "histogram bucketing and quantiles" `Quick test_histogram_quantiles;
      tc "prometheus and json export" `Quick test_prometheus_exposition;
      tc "span nesting and durations" `Quick test_trace_nesting;
      tc "jsonl schema checker rejects" `Quick test_validate_rejects;
      tc "cross-process span merge" `Quick test_remote_span_merge;
      tc "prometheus deterministic + escaped" `Quick
        test_prometheus_deterministic_escaped;
      tc "ledger matches composition theorem" `Quick
        test_ledger_matches_composition;
      tc "ledger monotone, warns once" `Quick test_ledger_monotone_and_warns;
      tc "bit-identical with telemetry on/off" `Quick
        test_identical_with_and_without_telemetry;
      tc "all six stages per (round, server)" `Quick test_stage_coverage;
      tc "deployment ledger vs Theorem 2" `Quick test_deployment_ledger;
      tc "injected delay excluded from latency" `Quick
        test_injected_delay_excluded_from_latency;
      tc "fault retry counters" `Quick test_retry_counters;
      tc "waterfall hops hold their own stages" `Quick
        test_waterfall_hops_hold_their_stages;
    ] )
