(* Compare two sets of benchmark result files (run.exe --out F):

     compare.exe BASE.json... -- CHANGE.json...

   Each file is one run of every workload (or of some).  For every
   workload and metric the table gives each side's median and quartiles
   over its files, the share of run pairs the change wins (files are
   paired in the order given), and, for end-to-end metrics, a verdict by
   the rules of Stats.compare_runs.  A metric that some file has and
   another lacks is missing: comparing the rest would pair the wrong
   runs.  Exits 1 when a metric regressed beyond its bound or is
   missing, 2 on unreadable input. *)

module Json = Vuvuzela_telemetry.Json

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("compare: " ^ msg); exit 2) fmt

(* workload -> metric -> value, from one result file. *)
let load path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let doc = match Json.parse text with Ok j -> j | Error e -> fail "%s: %s" path e in
  match Json.member "workloads" doc with
  | Some (Json.Obj ws) ->
      List.map
        (fun (w, r) ->
          let metrics =
            match Json.member "metrics" r with
            | Some (Json.Obj ms) ->
                List.filter_map
                  (fun (k, m) ->
                    Option.map (fun v -> (k, v))
                      (Option.bind (Json.member "value" m) Json.to_float))
                  ms
            | _ -> fail "%s: workload %s has no metrics" path w
          in
          (w, metrics))
        ws
  | _ -> fail "%s: no workloads" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | a :: rest -> split (a :: acc) rest
    | [] -> fail "usage: compare.exe BASE.json... -- CHANGE.json..."
  in
  let base_files, change_files = split [] args in
  if base_files = [] || change_files = [] then
    fail "usage: compare.exe BASE.json... -- CHANGE.json...";
  let base = List.map load base_files and change = List.map load change_files in
  let workloads =
    List.sort_uniq compare (List.concat_map (List.map fst) (base @ change))
  in
  (* One value per file, in file order. *)
  let values side w k =
    List.map (fun run -> Option.bind (List.assoc_opt w run) (List.assoc_opt k)) side
  in
  let regressed = ref 0 and missing = ref 0 in
  Printf.printf "%-12s %-24s %-30s %-30s %8s %6s  %s\n" "workload" "metric"
    "base median [q1, q3]" "change median [q1, q3]" "worse" "wins" "verdict";
  let q (a, b, c) = Printf.sprintf "%.5g [%.5g, %.5g]" b a c in
  List.iter
    (fun w ->
      List.iter
        (fun (s : Stats.spec) ->
          let b = values base w s.name and c = values change w s.name in
          if List.for_all Option.is_none (b @ c) then ()
          else if List.exists Option.is_none (b @ c) then begin
            incr missing;
            Printf.printf "%-12s %-24s missing in %d of %d files\n" w s.name
              (List.length (List.filter Option.is_none (b @ c)))
              (List.length (b @ c))
          end
          else
            let r =
              Stats.compare_runs s ~base:(List.filter_map Fun.id b)
                ~change:(List.filter_map Fun.id c)
            in
            let verdict =
              match (r.verdict, s.bound) with
              | Some v, Some bound ->
                  if v = Stats.Regressed then incr regressed;
                  Printf.sprintf "%s (bound %.0f%%)" (Stats.string_of_verdict v)
                    (100. *. bound)
              | _ -> "-"
            in
            Printf.printf "%-12s %-24s %-30s %-30s %7.1f%% %3d/%-2d  %s\n" w s.name
              (q r.base) (q r.change) (100. *. r.worse_by) r.wins r.pairs verdict)
        (Stats.end_to_end @ Stats.per_layer))
    workloads;
  if !regressed > 0 || !missing > 0 then begin
    Printf.printf "%d regressed beyond their bound, %d missing\n" !regressed !missing;
    exit 1
  end
