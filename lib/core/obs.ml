(* Coordinator-side observability collector; see the interface.

   The collector is deliberately out-of-band: [record_round] appends to
   a JSONL event log as rounds complete, and everything expensive —
   scraping the daemons, merging traces, rendering the digest — happens
   once, at [finalize], while the daemons are still alive (the scrape
   must precede the Bye cascade or there is nothing left to scrape).
   Nothing here touches the round pipeline, so a deployment's
   transcript is bit-identical with or without an [--obs-dir]. *)

module Json = Vuvuzela_telemetry.Json
module Telemetry = Vuvuzela_telemetry.Telemetry
module Trace = Vuvuzela_telemetry.Trace
module Metrics = Vuvuzela_telemetry.Metrics
module Httpd = Vuvuzela_transport.Httpd

type t = {
  dir : string;
  scrape : (int * Unix.sockaddr) list;
  events : out_channel;
  mutable finalized : bool;
}

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir ?(scrape = []) () =
  try
    mkdir_p dir;
    let events =
      open_out_gen
        [ Open_creat; Open_append; Open_wronly ]
        0o644
        (Filename.concat dir "events.jsonl")
    in
    Ok { dir; scrape; events; finalized = false }
  with
  | Sys_error e -> Error (Printf.sprintf "obs: %s" e)
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "obs: %s %s: %s" fn arg (Unix.error_message e))

let record_event t json =
  if not t.finalized then begin
    output_string t.events (Json.to_string json);
    output_char t.events '\n';
    flush t.events
  end

let record_round t ~kind ~round ~attempts ~batch ~admitted ~late ~wire_bytes
    ~elapsed_ms ~acks ~aborts ~failed ?budget () =
  let base =
    [
      ("event", Json.Str "round");
      ("kind", Json.Str kind);
      ("round", Json.Num (float_of_int round));
      ("attempts", Json.Num (float_of_int attempts));
      ("batch", Json.Num (float_of_int batch));
      ("admitted", Json.Num (float_of_int admitted));
      ("late", Json.Num (float_of_int late));
      ("wire_bytes", Json.Num (float_of_int wire_bytes));
      ("elapsed_ms", Json.Num elapsed_ms);
      ("acks", Json.Num (float_of_int acks));
      ("aborts", Json.List (List.map (fun a -> Json.Str a) aborts));
      ("failed", Json.Bool failed);
    ]
  in
  let budget_fields =
    match budget with
    | None -> []
    | Some (eps, delta) ->
        [ ("eps", Json.Num eps); ("delta", Json.Num delta) ]
  in
  record_event t (Json.Obj (base @ budget_fields))

let write_file t name contents =
  let oc = open_out (Filename.concat t.dir name) in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Digest rendering                                                    *)
(* ------------------------------------------------------------------ *)

(* The digest reads only what [finalize] wrote to disk, so
   [vuvuzela inspect DIR] can re-render long after the deployment is
   gone. *)

type round_event = {
  kind : string;
  round : int;
  attempts : int;
  batch : int;
  admitted : int;
  late : int;
  wire_bytes : int;
  elapsed_ms : float;
  acks : int;
  aborts : string list;
  failed : bool;
  eps : float option;
}

let parse_round_event json =
  let int_field name = Option.bind (Json.member name json) Json.to_int in
  let num name = Option.bind (Json.member name json) Json.to_float in
  match
    ( Option.bind (Json.member "event" json) Json.to_str,
      Option.bind (Json.member "kind" json) Json.to_str,
      int_field "round" )
  with
  | Some "round", Some kind, Some round ->
      Some
        {
          kind;
          round;
          attempts = Option.value ~default:1 (int_field "attempts");
          batch = Option.value ~default:0 (int_field "batch");
          admitted = Option.value ~default:0 (int_field "admitted");
          late = Option.value ~default:0 (int_field "late");
          wire_bytes = Option.value ~default:0 (int_field "wire_bytes");
          elapsed_ms = Option.value ~default:0. (num "elapsed_ms");
          acks = Option.value ~default:0 (int_field "acks");
          aborts =
            (match Json.member "aborts" json with
            | Some (Json.List l) -> List.filter_map Json.to_str l
            | _ -> []);
          failed =
            Option.value ~default:false
              (Option.bind (Json.member "failed" json) Json.to_bool);
          eps = num "eps";
        }
  | _ -> None

type merged_span = {
  sid : int;
  sparent : int option;
  sname : string;
  sround : int;
  sserver : int;
  sdialing : bool;
  sdur_ms : float;
  process : string;
}

let parse_merged_span json =
  match
    ( Option.bind (Json.member "id" json) Json.to_int,
      Option.bind (Json.member "name" json) Json.to_str,
      Option.bind (Json.member "round" json) Json.to_int,
      Option.bind (Json.member "dur_ms" json) Json.to_float )
  with
  | Some sid, Some sname, Some sround, Some sdur_ms ->
      Some
        {
          sid;
          sparent = Option.bind (Json.member "parent" json) Json.to_int;
          sname;
          sround;
          sserver =
            Option.value ~default:(-1)
              (Option.bind (Json.member "server" json) Json.to_int);
          sdialing =
            Option.value ~default:false
              (Option.bind (Json.member "dialing" json) Json.to_bool);
          sdur_ms;
          process =
            Option.value ~default:"?"
              (Option.bind (Json.member "process" json) Json.to_str);
        }
  | _ -> None

let parse_jsonl parse_line contents =
  String.split_on_char '\n' contents
  |> List.filter_map (fun line ->
         if String.trim line = "" then None
         else
           match Json.parse line with
           | Ok json -> parse_line json
           | Error _ -> None)

let bar ~width ~scale v =
  let n =
    if scale <= 0. then 0
    else min width (int_of_float (ceil (v /. scale *. float_of_int width)))
  in
  String.make (max 0 n) '#' ^ String.make (width - max 0 n) ' '

(* Spans worth a waterfall line: round roots, server hops (named by
   position: in process they share one label), the pipeline stages
   under them, and the coordinator's client phases.  Timestamps are
   per-process epochs and incomparable across the merge, so the
   waterfall renders durations only, as a tree: each span's line, then
   its children's, indented one step deeper.  Siblings keep the merged
   trace's order, which is begin order within a process. *)
let waterfall_names =
  [ "conv-round"; "dial-round"; "hop"; "client-build"; "client-decrypt" ]
  @ Telemetry.server_stages

let render_waterfall buf spans (ev : round_event) =
  let dialing = ev.kind = "dial" in
  let mine =
    List.filter
      (fun s ->
        s.sround = ev.round && s.sdialing = dialing
        && List.mem s.sname waterfall_names)
      spans
  in
  match mine with
  | [] -> ()
  | _ ->
      let scale =
        List.fold_left (fun acc s -> Float.max acc s.sdur_ms) 0. mine
      in
      let children parent =
        List.filter (fun s -> s.sparent = parent) mine
      in
      let rec draw depth s =
        Buffer.add_string buf
          (Printf.sprintf "%s%-14s %-14s %9.2f ms  |%s|\n"
             (String.make (2 * depth) ' ')
             s.process
             (if s.sname = "hop" then Printf.sprintf "hop %d" s.sserver
              else s.sname)
             s.sdur_ms
             (bar ~width:30 ~scale s.sdur_ms));
        List.iter (draw (depth + 1)) (children (Some s.sid))
      in
      (* A span whose parent draws no line of its own is a root. *)
      List.iter
        (fun s ->
          match s.sparent with
          | Some p when List.exists (fun o -> o.sid = p) mine -> ()
          | _ -> draw 1 s)
        mine

let render_digest ~dir =
  let events_path = Filename.concat dir "events.jsonl" in
  if not (Sys.file_exists events_path) then
    Error (Printf.sprintf "no events.jsonl under %s" dir)
  else begin
    let events = parse_jsonl parse_round_event (read_file events_path) in
    let spans =
      let merged = Filename.concat dir "merged-trace.jsonl" in
      if Sys.file_exists merged then
        parse_jsonl parse_merged_span (read_file merged)
      else []
    in
    let buf = Buffer.create 4096 in
    let conv = List.filter (fun e -> e.kind = "conv") events in
    let dial = List.filter (fun e -> e.kind = "dial") events in
    let failures = List.filter (fun e -> e.failed) events in
    let retried = List.filter (fun e -> e.attempts > 1) events in
    Buffer.add_string buf "Vuvuzela round digest\n";
    Buffer.add_string buf "=====================\n";
    Buffer.add_string buf
      (Printf.sprintf
         "rounds: %d (%d conversation, %d dialing), %d retried, %d failed\n\n"
         (List.length events) (List.length conv) (List.length dial)
         (List.length retried) (List.length failures));
    List.iter
      (fun ev ->
        Buffer.add_string buf
          (Printf.sprintf
             "%s round %d%s: batch=%d admitted=%d late=%d wire=%dB \
              %.1fms attempts=%d%s%s\n"
             ev.kind ev.round
             (if ev.failed then " FAILED" else "")
             ev.batch ev.admitted ev.late ev.wire_bytes ev.elapsed_ms
             ev.attempts
             (if ev.kind = "dial" then Printf.sprintf " acks=%d" ev.acks
              else "")
             (match ev.eps with
             | Some e -> Printf.sprintf " eps'=%.4g" e
             | None -> ""));
        render_waterfall buf spans ev)
      events;
    (* The abort/late timeline: only the rounds where something went
       sideways, each abort in attempt order. *)
    let eventful =
      List.filter (fun e -> e.aborts <> [] || e.late > 0) events
    in
    if eventful <> [] then begin
      Buffer.add_string buf "\ntimeline:\n";
      List.iter
        (fun ev ->
          if ev.late > 0 then
            Buffer.add_string buf
              (Printf.sprintf "  %s round %d: %d late (requeued)\n" ev.kind
                 ev.round ev.late);
          List.iteri
            (fun i a ->
              Buffer.add_string buf
                (Printf.sprintf "  %s round %d: abort #%d %s -> %s\n" ev.kind
                   ev.round (i + 1) a
                   (if ev.failed && i = List.length ev.aborts - 1 then
                      "gave up"
                    else "retried")))
            ev.aborts)
        eventful
    end;
    (* The budget curve's endpoint: the last charged round's worst-case
       cumulative spend (the curve itself is in the per-round lines). *)
    (match
       List.fold_left
         (fun acc ev -> match ev.eps with Some e -> Some e | None -> acc)
         None events
     with
    | Some eps ->
        Buffer.add_string buf
          (Printf.sprintf "\nprivacy budget: cumulative eps'=%.4g\n" eps)
    | None -> ());
    Ok (Buffer.contents buf)
  end

(* ------------------------------------------------------------------ *)
(* Finalize                                                            *)
(* ------------------------------------------------------------------ *)

let scrape_daemon t (index, addr) =
  let fetch path file =
    match Httpd.get addr path with
    | Ok (200, body) ->
        write_file t file body;
        Some body
    | Ok (status, _) ->
        record_event t
          (Json.Obj
             [
               ("event", Json.Str "scrape-error");
               ("server", Json.Num (float_of_int index));
               ("path", Json.Str path);
               ("status", Json.Num (float_of_int status));
             ]);
        None
    | Error e ->
        record_event t
          (Json.Obj
             [
               ("event", Json.Str "scrape-error");
               ("server", Json.Num (float_of_int index));
               ("path", Json.Str path);
               ("detail", Json.Str e);
             ]);
        None
  in
  ignore
    (fetch "/metrics" (Printf.sprintf "daemon-%d-metrics.prom" index)
      : string option);
  ignore
    (fetch "/healthz" (Printf.sprintf "daemon-%d-healthz.json" index)
      : string option);
  Option.map
    (fun body -> (Printf.sprintf "server-%d" index, body))
    (fetch "/trace" (Printf.sprintf "daemon-%d-trace.jsonl" index))

let finalize ?telemetry t =
  if not t.finalized then begin
    (* Scrape while the daemons are still alive — the caller runs this
       before sending Bye down the chain. *)
    let daemon_traces = List.filter_map (scrape_daemon t) t.scrape in
    let coordinator_trace =
      match telemetry with
      | None -> None
      | Some tel ->
          let jsonl = Trace.to_jsonl (Telemetry.trace tel) in
          write_file t "trace.jsonl" jsonl;
          write_file t "metrics.prom"
            (Metrics.to_prometheus (Telemetry.metrics tel));
          write_file t "metrics.json"
            (Json.to_string (Metrics.to_json (Telemetry.metrics tel)) ^ "\n");
          Some jsonl
    in
    (match coordinator_trace with
    | None -> ()
    | Some coord -> (
        match Trace.merge_jsonl (("coordinator", coord) :: daemon_traces) with
        | Ok merged -> write_file t "merged-trace.jsonl" merged
        | Error e ->
            record_event t
              (Json.Obj
                 [
                   ("event", Json.Str "merge-error"); ("detail", Json.Str e);
                 ])));
    t.finalized <- true;
    close_out t.events;
    match render_digest ~dir:t.dir with
    | Ok digest -> write_file t "digest.txt" digest
    | Error _ -> ()
  end
