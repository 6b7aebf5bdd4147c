(* Declarative fault plans for the chain's link boundaries.

   A plan is pure data so that a failure schedule can come from a CLI
   flag, a test literal, or a seeded generator, and so that the same
   plan plus the same deployment seed reproduces the same run bit for
   bit.  The injector consumes each fault the first time its (round,
   server) site is crossed: transient failures that a bounded retry
   policy can outlast, which is exactly the availability model of the
   paper (a crashed server restarts, a lossy link recovers). *)

type kind =
  | Crash
  | Drop_link
  | Corrupt_frame of int
  | Truncate_frame of int
  | Extend_frame of int
  | Delay_ms of int
  | Tamper_slot of int
  | Slow_link of int
  | Flap of int
  | Partition of int

type effect =
  | Lose
  | Delay of int
  | Stall of int
  | Reset
  | Tamper of int
  | Edit_frame

(* What each kind does, written once: a daemon applies these and never
   looks at the kind itself. *)
let effects = function
  | Crash -> [ Lose; Reset ]
  | Drop_link -> [ Lose ]
  | Corrupt_frame _ | Truncate_frame _ | Extend_frame _ -> [ Edit_frame ]
  | Delay_ms ms -> [ Delay ms ]
  | Tamper_slot slot -> [ Tamper slot ]
  (* A congested link: the batch arrives, late. *)
  | Slow_link ms -> [ Stall ms ]
  (* A reset that heals: nothing is lost but time. *)
  | Flap ms -> [ Stall ms; Reset ]
  (* A cut link: the batch is lost and the heal takes [ms]. *)
  | Partition ms -> [ Lose; Stall ms; Reset ]

let tag = function
  | Crash -> "crash"
  | Drop_link -> "drop-link"
  | Delay_ms _ -> "delay"
  | Tamper_slot _ -> "tamper-slot"
  | Corrupt_frame _ -> "corrupt-frame"
  | Truncate_frame _ -> "truncate-frame"
  | Extend_frame _ -> "extend-frame"
  | Slow_link _ -> "slow-link"
  | Flap _ -> "flap"
  | Partition _ -> "partition"

type fault = { round : int; server : int; kind : kind }
type plan = fault list

let pp_kind ppf = function
  | Crash -> Format.pp_print_string ppf "crash"
  | Drop_link -> Format.pp_print_string ppf "drop"
  | Corrupt_frame pos -> Format.fprintf ppf "corrupt(%d)" pos
  | Truncate_frame n -> Format.fprintf ppf "truncate(%d)" n
  | Extend_frame n -> Format.fprintf ppf "pad(%d)" n
  | Delay_ms ms -> Format.fprintf ppf "delay(%d)" ms
  | Tamper_slot slot -> Format.fprintf ppf "tamper(%d)" slot
  | Slow_link ms -> Format.fprintf ppf "slow(%d)" ms
  | Flap ms -> Format.fprintf ppf "flap(%d)" ms
  | Partition ms -> Format.fprintf ppf "partition(%d)" ms

let pp_fault ppf { round; server; kind } =
  Format.fprintf ppf "%a@@%d:%d" pp_kind kind round server

let to_string plan =
  String.concat ";" (List.map (Format.asprintf "%a" pp_fault) plan)

(* The [Edit_frame] effect: given the encoded frame a sender emitted,
   what does the faulty wire deliver?  Every other kind leaves the frame
   alone. *)
let apply_frame frame = function
  | Corrupt_frame pos ->
      let frame = Bytes.copy frame in
      let len = Bytes.length frame in
      if len > 0 then begin
        let pos = pos mod len in
        Bytes.set frame pos
          (Char.chr (Char.code (Bytes.get frame pos) lxor 0xff))
      end;
      frame
  | Truncate_frame n -> Bytes.sub frame 0 (min n (Bytes.length frame))
  | Extend_frame n -> Bytes.cat frame (Bytes.make n '\xaa')
  | Crash | Drop_link | Delay_ms _ | Tamper_slot _ | Slow_link _ | Flap _
  | Partition _ ->
      frame

(* The [Tamper] effect, the §2.1 active adversary: flip one byte of one
   onion so framing survives but authentication at the receiving server
   does not.  A batch crosses a link as parts, so slots are absolute:
   each part takes the slots that fall inside it and hands the rest on;
   a slot past the end of the batch tampers nothing. *)
let tamper_part ~off slots part =
  let here, pending =
    List.partition (fun s -> s < off + Array.length part) slots
  in
  if here = [] then (part, pending)
  else begin
    let part = Array.map Bytes.copy part in
    List.iter
      (fun s ->
        if s >= off then begin
          let item = part.(s - off) in
          if Bytes.length item > 0 then
            Bytes.set item 0 (Char.chr (Char.code (Bytes.get item 0) lxor 0xff))
        end)
      here;
    (part, pending)
  end

(* ------------------------------------------------------------------ *)
(* Grammar                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let int_of ~what s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 0 -> Ok n
  | Some _ -> Error (Printf.sprintf "%s must be >= 0, got %s" what s)
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let kind_of spec =
  let spec = String.trim spec in
  match String.index_opt spec '(' with
  | None -> (
      match spec with
      | "crash" -> Ok Crash
      | "drop" -> Ok Drop_link
      | "flap" -> Ok (Flap 0)
      | _ -> Error (Printf.sprintf "unknown fault kind %S" spec))
  | Some lp ->
      if spec.[String.length spec - 1] <> ')' then
        Error (Printf.sprintf "missing ')' in %S" spec)
      else
        let name = String.sub spec 0 lp in
        let arg = String.sub spec (lp + 1) (String.length spec - lp - 2) in
        let* n = int_of ~what:(name ^ " argument") arg in
        (match String.trim name with
        | "corrupt" -> Ok (Corrupt_frame n)
        | "truncate" -> Ok (Truncate_frame n)
        | "pad" -> Ok (Extend_frame n)
        | "delay" -> Ok (Delay_ms n)
        | "tamper" -> Ok (Tamper_slot n)
        | "slow" -> Ok (Slow_link n)
        | "flap" -> Ok (Flap n)
        | "partition" -> Ok (Partition n)
        | other -> Error (Printf.sprintf "unknown fault kind %S" other))

let split_on char s =
  match String.index_opt s char with
  | None -> (s, None)
  | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )

let fault_of spec =
  let spec = String.trim spec in
  match split_on '@' spec with
  | _, None -> Error (Printf.sprintf "missing '@round' in %S" spec)
  | kind_s, Some site -> (
      let* kind = kind_of kind_s in
      (* site := round [':' server] ['x' count] *)
      let site, count_s = split_on 'x' site in
      let round_s, server_s = split_on ':' site in
      let* round = int_of ~what:"round" round_s in
      let* server =
        match server_s with None -> Ok 0 | Some s -> int_of ~what:"server" s
      in
      let* count =
        match count_s with None -> Ok 1 | Some s -> int_of ~what:"count" s
      in
      if round < 1 then Error (Printf.sprintf "round must be >= 1 in %S" spec)
      else if count < 1 then
        Error (Printf.sprintf "count must be >= 1 in %S" spec)
      else Ok (List.init count (fun i -> { round = round + i; server; kind })))

let parse s =
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | piece :: rest ->
        let* faults = fault_of piece in
        go (faults :: acc) rest
  in
  String.split_on_char ';' s
  |> List.filter (fun p -> String.trim p <> "")
  |> go []

(* ------------------------------------------------------------------ *)
(* Injection                                                           *)
(* ------------------------------------------------------------------ *)

type injector = { mutable pending_faults : fault list }

let injector plan = { pending_faults = plan }

let fire inj ~round ~server =
  let hit, rest =
    List.partition
      (fun f -> f.round = round && f.server = server)
      inj.pending_faults
  in
  inj.pending_faults <- rest;
  List.map (fun f -> f.kind) hit

let pending inj = List.length inj.pending_faults
