(* The committed benchmark artifacts share one header: every root-level
   BENCH_*.json names the bench section that wrote it, its schema
   version and the host's core count, as bench/main.ml's
   [write_artifact] writes them.  An artifact committed without it, or
   hand-edited out of shape, fails here. *)

module Json = Vuvuzela_telemetry.Json

(* [dune runtest] runs this binary in _build/default/test, with copies
   of the root's artifacts one level up (declared in test/dune);
   [dune exec] runs it from the repository root itself. *)
let root = if Sys.file_exists "dune-project" then "." else ".."

let artifacts () =
  Sys.readdir root |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f
         && Filename.check_suffix f ".json")
  |> List.sort compare

let test_headers () =
  let files = artifacts () in
  if files = [] then Alcotest.fail "no BENCH_*.json beside the test";
  List.iter
    (fun file ->
      let doc =
        match
          Json.parse
            (In_channel.with_open_text (Filename.concat root file)
               In_channel.input_all)
        with
        | Ok doc -> doc
        | Error e -> Alcotest.failf "%s does not parse: %s" file e
      in
      let field name conv =
        match Option.bind (Json.member name doc) conv with
        | Some v -> v
        | None -> Alcotest.failf "%s: header field %S missing" file name
      in
      Alcotest.(check string)
        (file ^ " names its benchmark")
        file
        (Printf.sprintf "BENCH_%s.json" (field "benchmark" Json.to_str));
      Alcotest.(check int) (file ^ " schema") 1 (field "schema" Json.to_int);
      if field "host_cores" Json.to_int < 1 then
        Alcotest.failf "%s: host_cores below 1" file)
    files

let suite =
  ( "bench-artifacts",
    [ Alcotest.test_case "every BENCH_*.json carries the header" `Quick
        test_headers ] )
