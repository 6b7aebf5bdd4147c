(* The benchmark's rules; see the interface. *)

type better = Lower | Higher

type spec = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
  floor : float;
}

let e2e ?(floor = 0.) name unit better bound =
  { name; unit; better; bound = Some bound; floor }

let layer name unit better = { name; unit; better; bound = None; floor = 0. }

(* A user of the deployment sees round latency, throughput, what a round
   costs their device, how long the deployment takes to come up, and
   the servers' memory.  Every request failure fails the run outright
   (the result line's [failed]), so a failure fraction, always zero on
   a passing run, is not among the bounded metrics.

   Every time is reported at the host's reference speed (Gauge).  Each
   bound is one and a half to two times the widest spread that ten runs
   of one commit showed on a shared 2-core host (README.md): a bound
   below the spread turns noise into regressions.  Set-up takes
   milliseconds in process, so it also has an absolute floor: a slower
   set-up is a regression only once it costs more than 50 ms. *)
let end_to_end =
  [
    e2e "round_ms.p50" "ms" Lower 0.15;
    e2e "round_ms.p75" "ms" Lower 0.25;
    e2e "msgs_per_sec" "msgs/s" Higher 0.20;
    e2e "client_us_per_msg" "us" Lower 0.15;
    e2e "setup_s" "s" Lower 0.25 ~floor:0.05;
    e2e "peak_rss_mb" "MB" Lower 0.10;
  ]

(* Only what every workload measures: the extras (per-hop counts, the
   in-process codec times and accounting residual, dialing fetch and
   scan, TCP link counters, dead-drop histogram) are printed but not
   tracked. *)
let per_layer =
  let hop i stem = layer (Printf.sprintf "hop%d.%s" i stem) "ms" Lower in
  [
    layer "x25519.ops_per_sec" "1/s" Higher;
    layer "x25519_base.ops_per_sec" "1/s" Higher;
    layer "aead.seal_mb_per_sec" "MB/s" Higher;
    layer "dh.client_ops" "count" Lower;
    layer "dh.server_ops" "count" Lower;
    layer "dh.lower_bound_ms" "ms" Lower;
    layer "dh.overhead_x" "x" Lower;
    layer "loadgen.build_ms" "ms" Lower;
    layer "loadgen.verify_ms" "ms" Lower;
    layer "entry.submit_ms" "ms" Lower;
    layer "entry.peak_buffered" "count" Lower;
    layer "rpc.wire_bytes" "B" Lower;
    hop 0 "peel_ms";
    hop 1 "peel_ms";
    hop 2 "peel_ms";
    hop 0 "forward_ms";
    hop 1 "forward_ms";
    hop 2 "exchange_ms";
    hop 0 "backward_ms";
    hop 1 "backward_ms";
  ]

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let string_of_better = function Lower -> "lower" | Higher -> "higher"

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let nonempty fn xs =
  match sorted xs with
  | [||] -> invalid_arg (Printf.sprintf "Stats.%s: empty sample" fn)
  | a -> a

let median xs =
  let a = nonempty "median" xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles(data, n=4), method "exclusive", with
   its exact integer index arithmetic. *)
let quartiles xs =
  let a = nonempty "quartiles" xs in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

(* Nearest rank of percent [p] in a sample of [n], 1-based. *)
let rank ~n p = max 1 (((p * n) + 99) / 100)

let top_percentile n =
  match List.find_opt (fun p -> n - rank ~n p >= 10) [ 99; 90; 75; 50 ] with
  | Some p -> p
  | None -> 50

let percentile xs p =
  if p < 1 || p > 100 then invalid_arg "Stats.percentile: percent";
  let a = nonempty "percentile" xs in
  a.(rank ~n:(Array.length a) p - 1)

type verdict = Improved | Unchanged | Regressed | Unresolved

let string_of_verdict = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type comparison = {
  base : float * float * float;
  change : float * float * float;
  wins : int;
  pairs : int;
  worse_by : float;
  verdict : verdict option;
}

let compare_runs (s : spec) ~base ~change =
  let beats x y = match s.better with Lower -> x < y | Higher -> x > y in
  let ((b1, mb, b3) as bq) = quartiles base in
  let ((c1, mc, c3) as cq) = quartiles change in
  let pairs = min (List.length base) (List.length change) in
  let wins =
    List.fold_left2
      (fun acc b c -> if beats c b then acc + 1 else acc)
      0
      (List.filteri (fun i _ -> i < pairs) base)
      (List.filteri (fun i _ -> i < pairs) change)
  in
  let worse = match s.better with Lower -> mc -. mb | Higher -> mb -. mc in
  let all_beat = List.for_all (fun c -> List.for_all (beats c) base) change in
  let verdict =
    Option.map
      (fun bound ->
        let tolerance = Float.max (bound *. Float.abs mb) s.floor in
        if 10 * wins >= 9 * pairs && beats mc mb && Float.abs (mc -. mb) > b3 -. b1
        then Improved
        else if Float.max (b3 -. b1) (c3 -. c1) > tolerance && not all_beat then
          Unresolved
        else if worse > tolerance then Regressed
        else Unchanged)
      s.bound
  in
  { base = bq; change = cq; wins; pairs; worse_by = worse /. Float.abs mb; verdict }

let onions_in ~n ~noise =
  let upstream = ref 0 in
  Array.map
    (fun added ->
      let here = n + !upstream in
      upstream := !upstream + added;
      here)
    noise

let server_dh ~dialing ~n ~noise =
  let hops = Array.length noise in
  let peel = Array.fold_left ( + ) 0 (onions_in ~n ~noise) in
  let wrap = ref 0 in
  Array.iteri (fun i v -> wrap := !wrap + (2 * (hops - 1 - i) * v)) noise;
  let boxes = if dialing then 2 * Array.fold_left ( + ) 0 noise else 0 in
  peel + !wrap + boxes

let client_dh ~dialing ~chain_len ~n ~scanned =
  (2 * chain_len * n) + if dialing then (2 * n) + scanned else 0

let check_domains ~jobs ~nproc =
  if jobs < 1 then Error "the chain needs at least one domain"
  else if jobs > nproc then
    Error
      (Printf.sprintf
         "%d chain domains exceed the %d cores of this host; the round time \
          would measure the scheduler"
         jobs nproc)
  else Ok ()
