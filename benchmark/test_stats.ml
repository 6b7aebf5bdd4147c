(* Pins the benchmark's rules: the percentile rule, the quartiles, the
   compare verdicts, the X25519 predictor, the domain budget, and that
   the repository's BENCHMARK.json lists exactly the metrics the runner
   reports. *)

module Json = Vuvuzela_telemetry.Json

let failures = ref 0

let test name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let close a b = Float.abs (a -. b) < 1e-9
let close3 (a, b, c) (x, y, z) = close a x && close b y && close c z
let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

let () =
  (* A percentile is reported only with ten samples beyond it. *)
  test "N=40 supports p75" (Stats.top_percentile 40 = 75);
  test "N=39 gives p50 only" (Stats.top_percentile 39 = 50);
  test "N<20 gives p50 only" (Stats.top_percentile 19 = 50);
  test "N=100 supports p90" (Stats.top_percentile 100 = 90);
  test "N=1000 supports p99" (Stats.top_percentile 1000 = 99);
  test "p75 of 1..40 is the 30th value" (close (Stats.percentile (range 1 40) 75) 30.);
  test "median of an even sample" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  test "quartiles of 1..4" (close3 (Stats.quartiles (range 1 4)) (1.25, 2.5, 3.75));
  test "quartiles of 1..10" (close3 (Stats.quartiles (range 1 10)) (2.75, 5.5, 8.25));
  test "quartiles of an unsorted 7"
    (close3 (Stats.quartiles [ 5.; 1.; 9.; 3.; 7.; 2.; 8. ]) (2., 5., 8.));
  test "quartiles of two" (close3 (Stats.quartiles [ 3.; 1. ]) (0.5, 2., 3.5));
  test "spread" (close (Stats.spread (range 1 10)) ((8.25 -. 2.75) /. 5.5))

let () =
  let steady = List.map (fun x -> 100. +. (0.1 *. x)) (range 0 9) in
  let verdict ?(better = Stats.Lower) ?(bound = 0.10) ?(floor = 0.) base change =
    let spec = { Stats.name = "t"; unit = "ms"; better; bound = Some bound; floor } in
    Option.get (Stats.compare_runs spec ~base ~change).Stats.verdict
  in
  let shift k = List.map (fun x -> x *. k) steady in
  test "10% faster on every pair is improved" (verdict steady (shift 0.9) = Stats.Improved);
  test "the same runs are unchanged" (verdict steady steady = Stats.Unchanged);
  test "5% slower within a 10% bound is unchanged"
    (verdict steady (shift 1.05) = Stats.Unchanged);
  test "20% slower beyond a 10% bound is regressed"
    (verdict steady (shift 1.2) = Stats.Regressed);
  test "higher-is-better flips the direction"
    (verdict ~better:Stats.Higher steady (shift 1.2) = Stats.Improved
    && verdict ~better:Stats.Higher steady (shift 0.8) = Stats.Regressed);
  let wide = [ 60.; 140.; 70.; 130.; 80.; 120.; 90.; 110.; 100.; 100. ] in
  test "a spread wider than the bound is unresolved"
    (verdict wide (List.map (fun x -> x *. 1.02) wide) = Stats.Unresolved);
  test "unless every change run beats every parent run"
    (verdict wide (List.map (fun x -> x *. 0.3) wide) <> Stats.Unresolved);
  (* Nine tenths of the pairs, not just a better median. *)
  let mixed = List.mapi (fun i x -> if i < 3 then x *. 1.01 else x *. 0.9) steady in
  test "winning 7 of 10 pairs is not improved" (verdict steady mixed <> Stats.Improved);
  (* Set-up in milliseconds: noisy as a share, harmless in seconds. *)
  let setup = List.map (fun x -> 0.001 *. (1. +. (0.1 *. x))) (range 0 9) in
  let slower k = List.map (fun x -> x +. k) setup in
  test "20 ms slower set-up is within a 50 ms floor"
    (verdict ~bound:0.25 ~floor:0.05 setup (slower 0.02) = Stats.Unchanged);
  test "80 ms slower set-up is beyond it"
    (verdict ~bound:0.25 ~floor:0.05 setup (slower 0.08) = Stats.Regressed);
  test "a metric without a bound gets no verdict"
    ((Stats.compare_runs
        { Stats.name = "t"; unit = "ms"; better = Stats.Lower; bound = None; floor = 0. }
        ~base:steady ~change:steady).Stats.verdict = None)

let () =
  test "conv-noise shape: n=128, 1000 noise per mixing hop is 9384 DH"
    (Stats.server_dh ~dialing:false ~n:128 ~noise:[| 1000; 1000; 0 |] = 9384);
  test "Figure 9 shape: n=1024, 8 noise per mixing hop is 3144 DH"
    (Stats.server_dh ~dialing:false ~n:1024 ~noise:[| 8; 8; 0 |] = 3144);
  test "dialing adds the noise invitations' sealed boxes"
    (Stats.server_dh ~dialing:true ~n:512 ~noise:[| 80; 80; 80 |]
    = (3 * 512) + (6 * 80) + (3 * 80) + (2 * 240));
  test "onions in at each hop" (Stats.onions_in ~n:10 ~noise:[| 2; 3; 0 |] = [| 10; 12; 15 |]);
  test "client DH" (Stats.client_dh ~dialing:false ~chain_len:3 ~n:10 ~scanned:0 = 60
                    && Stats.client_dh ~dialing:true ~chain_len:3 ~n:10 ~scanned:7 = 87)

let () =
  let ok = function Ok () -> true | Error _ -> false in
  test "2 chain domains on 2 cores: allowed" (ok (Stats.check_domains ~jobs:2 ~nproc:2));
  test "3 chain domains on 2 cores: refused"
    (not (ok (Stats.check_domains ~jobs:3 ~nproc:2)));
  test "no chain domain: refused" (not (ok (Stats.check_domains ~jobs:0 ~nproc:2)))

(* BENCHMARK.json must list what the runner reports, with the same
   units, directions and bounds. *)
let () =
  let doc =
    match Json.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let listed key =
    match Json.member key doc with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            let str k = Option.bind (Json.member k m) Json.to_str in
            ( str "name",
              str "unit",
              Option.bind (str "better") Stats.better_of_string,
              Option.bind (Json.member "bound" m) Json.to_float ))
          l
    | _ -> []
  in
  let expected specs =
    List.map
      (fun (s : Stats.spec) -> (Some s.name, Some s.unit, Some s.better, s.bound))
      specs
  in
  test "BENCHMARK.json end_to_end matches the runner"
    (listed "end_to_end" = expected Stats.end_to_end);
  test "BENCHMARK.json per_layer matches the runner"
    (listed "per_layer" = expected Stats.per_layer)

let () = if !failures > 0 then exit 1
