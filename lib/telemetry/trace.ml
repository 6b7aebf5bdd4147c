(* Append-only span recorder.  All mutation happens on the coordinating
   domain (the same contract as the round engine's RNG), so a plain list
   and stack suffice. *)

type context = { trace : int; origin : int; span : int }

type span = {
  id : int;
  parent : int option;
  remote : context option;
  name : string;
  round : int;
  server : int;
  dialing : bool;
  start_ms : float;
  mutable dur_ms : float;
  mutable annotations : (string * string) list;
  mutable closed : bool;
}

type t = {
  clock : unit -> float;
  epoch : float;
  trace_id : int;
  origin : int;
  mutable spans : span list;  (* begin order, newest first *)
  mutable next_id : int;
  mutable stack : span list;  (* open spans, innermost first *)
}

(* Distinct-enough across coordinator restarts, and safely below 2^53 so
   it round-trips through [Json.Num]. *)
let fresh_trace_id () =
  (Unix.getpid () lxor int_of_float (Unix.gettimeofday () *. 1e6))
  land 0x3FFFFFFF

let create ?(clock = Unix.gettimeofday) ?trace_id ?(origin = 0) () =
  let trace_id =
    match trace_id with Some id -> id land max_int | None -> fresh_trace_id ()
  in
  { clock; epoch = clock (); trace_id; origin; spans = []; next_id = 0;
    stack = [] }

let now_ms t = (t.clock () -. t.epoch) *. 1000.

let mk_span t ~parent ~remote ~name ~round ~server ~dialing =
  let s =
    {
      id = t.next_id;
      parent;
      remote;
      name;
      round;
      server;
      dialing;
      start_ms = now_ms t;
      dur_ms = 0.;
      annotations = [];
      closed = false;
    }
  in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  t.stack <- s :: t.stack;
  s

let begin_span t ~name ~round ?(server = -1) ?(dialing = false) () =
  let parent = match t.stack with [] -> None | p :: _ -> Some p.id in
  mk_span t ~parent ~remote:None ~name ~round ~server ~dialing

let begin_remote_span t ~name ~round ?(server = -1) ?(dialing = false)
    ?remote () =
  (* A remote-rooted span ignores the local open stack: its parent is
     the span the context names.  A context this tracer minted (the
     in-process chain shares one tracer) names a local span; any other
     is resolved at merge time. *)
  match remote with
  | Some c when c.trace = t.trace_id && c.origin = t.origin ->
      mk_span t ~parent:(Some c.span) ~remote:None ~name ~round ~server ~dialing
  | _ -> mk_span t ~parent:None ~remote ~name ~round ~server ~dialing

(* A span rooted in another process propagates that process's trace id:
   the id the coordinator minted travels hop to hop, so every re-stamped
   context downstream still names the root trace and the merge can link
   the whole chain.  Locally rooted spans export the local trace id. *)
let context_of t s =
  let trace = match s.remote with Some c -> c.trace | None -> t.trace_id in
  { trace; origin = t.origin; span = s.id }

let end_span t s =
  if not s.closed then begin
    s.dur_ms <- now_ms t -. s.start_ms;
    s.closed <- true;
    (* Pop s and, defensively, any unclosed children a raising stage
       left behind. *)
    let rec pop = function
      | x :: rest when x == s -> rest
      | x :: rest ->
          if not x.closed then begin
            x.dur_ms <- now_ms t -. x.start_ms;
            x.closed <- true
          end;
          pop rest
      | [] -> []
    in
    t.stack <- pop t.stack
  end

let with_span t ~name ~round ?server ?dialing f =
  let s = begin_span t ~name ~round ?server ?dialing () in
  Fun.protect ~finally:(fun () -> end_span t s) f

let instant t ~name ~round ?server ?dialing () =
  let s = begin_span t ~name ~round ?server ?dialing () in
  (* Zero duration by construction, not by clock coincidence. *)
  s.closed <- true;
  s.dur_ms <- 0.;
  t.stack <- (match t.stack with x :: rest when x == s -> rest | st -> st)

let annotate t k v =
  match t.stack with
  | [] -> ()
  | s :: _ -> s.annotations <- (k, v) :: s.annotations

let spans t = List.rev t.spans
let span_count t = t.next_id

(* ------------------------------------------------------------------ *)
(* Wire context                                                        *)
(* ------------------------------------------------------------------ *)

(* 20 bytes, little-endian: u64 trace id, u32 origin, u64 span id.  The
   blob rides an [Rpc] control frame, so decoding must reject rather
   than raise on anything malformed — a poisoned context degrades to "no
   context", never to a round abort. *)
let context_len = 20

let encode_context c =
  let b = Bytes.create context_len in
  Bytes.set_int64_le b 0 (Int64.of_int c.trace);
  Bytes.set_int32_le b 8 (Int32.of_int c.origin);
  Bytes.set_int64_le b 12 (Int64.of_int c.span);
  b

let decode_context b =
  if Bytes.length b <> context_len then None
  else
    let trace = Int64.to_int (Bytes.get_int64_le b 0) in
    let origin = Int32.to_int (Bytes.get_int32_le b 8) in
    let span = Int64.to_int (Bytes.get_int64_le b 12) in
    if trace < 0 || span < 0 || origin < 0 || origin > 0xffff then None
    else Some { trace; origin; span }

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let context_to_json c =
  Json.Obj
    [
      ("trace", Json.Num (float_of_int c.trace));
      ("origin", Json.Num (float_of_int c.origin));
      ("span", Json.Num (float_of_int c.span));
    ]

let span_to_json ?origin ?trace s =
  let tail =
    List.concat
      [
        (match origin with
        | None -> []
        | Some o -> [ ("origin", Json.Num (float_of_int o)) ]);
        (match trace with
        | None -> []
        | Some id -> [ ("trace", Json.Num (float_of_int id)) ]);
        (match s.remote with
        | None -> []
        | Some c -> [ ("ctx", context_to_json c) ]);
      ]
  in
  Json.Obj
    ([
       ("id", Json.Num (float_of_int s.id));
       ("parent", match s.parent with None -> Json.Null | Some p -> Json.Num (float_of_int p));
       ("name", Json.Str s.name);
       ("round", Json.Num (float_of_int s.round));
       ("server", Json.Num (float_of_int s.server));
       ("dialing", Json.Bool s.dialing);
       ("start_ms", Json.Num s.start_ms);
       ("dur_ms", Json.Num s.dur_ms);
       ( "annotations",
         Json.Obj
           (List.rev_map (fun (k, v) -> (k, Json.Str v)) s.annotations) );
     ]
    @ tail)

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Json.to_string (span_to_json ~origin:t.origin ~trace:t.trace_id s));
      Buffer.add_char buf '\n')
    (spans t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Cross-process merge                                                 *)
(* ------------------------------------------------------------------ *)

(* Merge per-process JSONL exports into one causally linked trace.  The
   coordinator's export must come first: its trace id anchors the merge,
   and emitting processes in the given order guarantees every resolved
   parent appears on an earlier line (the [validate_jsonl] contract).
   Span ids are renumbered via an (origin, local id) map; each span's
   [ctx] back-reference — stamped by [begin_remote_span] — is resolved
   into an ordinary [parent] link when its trace id matches the root's,
   and dropped otherwise. *)
let merge_jsonl processes =
  let int_member name j = Option.bind (Json.member name j) Json.to_int in
  let parse_all () =
    let entries = ref [] in
    let err = ref None in
    List.iter
      (fun (label, text) ->
        let n = ref 0 in
        List.iter
          (fun line ->
            incr n;
            if line <> "" && !err = None then
              match Json.parse line with
              | Error e ->
                  err := Some (Printf.sprintf "%s line %d: %s" label !n e)
              | Ok j -> entries := (label, j) :: !entries)
          (String.split_on_char '\n' text))
      processes;
    match !err with Some e -> Error e | None -> Ok (List.rev !entries)
  in
  match parse_all () with
  | Error _ as e -> e
  | Ok entries ->
      let root_trace =
        match entries with
        | (_, j) :: _ -> int_member "trace" j
        | [] -> None
      in
      let ids = Hashtbl.create 256 in
      let next = ref 0 in
      List.iter
        (fun (_, j) ->
          match int_member "id" j with
          | None -> ()
          | Some id ->
              let origin = Option.value ~default:0 (int_member "origin" j) in
              if not (Hashtbl.mem ids (origin, id)) then begin
                Hashtbl.replace ids (origin, id) !next;
                incr next
              end)
        entries;
      let buf = Buffer.create 4096 in
      let err = ref None in
      List.iter
        (fun (label, j) ->
          if !err = None then
            match int_member "id" j with
            | None -> err := Some (Printf.sprintf "%s: span without id" label)
            | Some id ->
                let origin = Option.value ~default:0 (int_member "origin" j) in
                let gid = Hashtbl.find ids (origin, id) in
                let parent =
                  match int_member "parent" j with
                  | Some p -> Hashtbl.find_opt ids (origin, p)
                  | None -> (
                      match Json.member "ctx" j with
                      | None -> None
                      | Some ctx -> (
                          match
                            ( int_member "trace" ctx,
                              int_member "origin" ctx,
                              int_member "span" ctx )
                          with
                          | Some tr, Some o, Some sp
                            when root_trace = None || root_trace = Some tr ->
                              Hashtbl.find_opt ids (o, sp)
                          | _ -> None))
                in
                let fields = match j with Json.Obj f -> f | _ -> [] in
                let fields =
                  List.filter
                    (fun (k, _) ->
                      k <> "id" && k <> "parent" && k <> "ctx"
                      && k <> "process")
                    fields
                in
                let line =
                  Json.Obj
                    (("id", Json.Num (float_of_int gid))
                    :: ( "parent",
                         match parent with
                         | None -> Json.Null
                         | Some p -> Json.Num (float_of_int p) )
                    :: (fields @ [ ("process", Json.Str label) ]))
                in
                Buffer.add_string buf (Json.to_string line);
                Buffer.add_char buf '\n')
        entries;
      (match !err with Some e -> Error e | None -> Ok (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Schema checking                                                     *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let check_line ~seen_ids line_no line =
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line_no m)) fmt in
  match Json.parse line with
  | Error e -> fail "not valid JSON (%s)" e
  | Ok json ->
      let req name extract =
        match Option.bind (Json.member name json) extract with
        | Some v -> Ok v
        | None -> fail "missing or mistyped field %S" name
      in
      let* id = req "id" Json.to_int in
      let* _name =
        match Option.bind (Json.member "name" json) Json.to_str with
        | Some "" -> fail "empty span name"
        | Some n -> Ok n
        | None -> fail "missing or mistyped field \"name\""
      in
      let* _round = req "round" Json.to_int in
      let* _server = req "server" Json.to_int in
      let* _dialing = req "dialing" Json.to_bool in
      let* start_ms = req "start_ms" Json.to_float in
      let* dur_ms = req "dur_ms" Json.to_float in
      let* () =
        match Json.member "parent" json with
        | Some Json.Null -> Ok ()
        | Some (Json.Num _ as p) -> (
            match Json.to_int p with
            | Some parent when Hashtbl.mem seen_ids parent -> Ok ()
            | Some parent -> fail "parent %d not declared on an earlier line" parent
            | None -> fail "non-integral parent id")
        | _ -> fail "missing or mistyped field \"parent\""
      in
      let* () =
        match Json.member "annotations" json with
        | Some (Json.Obj fields) ->
            if List.for_all (fun (_, v) -> match v with Json.Str _ -> true | _ -> false) fields
            then Ok ()
            else fail "non-string annotation value"
        | _ -> fail "missing or mistyped field \"annotations\""
      in
      if start_ms < 0. then fail "negative start_ms"
      else if dur_ms < 0. then fail "negative dur_ms"
      else if Hashtbl.mem seen_ids id then fail "duplicate span id %d" id
      else begin
        Hashtbl.replace seen_ids id ();
        Ok ()
      end

let validate_jsonl text =
  let seen_ids = Hashtbl.create 256 in
  let lines = String.split_on_char '\n' text in
  let rec go n = function
    | [] -> Ok ()
    | [ "" ] -> Ok ()  (* trailing newline *)
    | line :: rest -> (
        match check_line ~seen_ids n line with
        | Ok () -> go (n + 1) rest
        | Error _ as e -> e)
  in
  if text = "" then Error "empty trace" else go 1 lines
