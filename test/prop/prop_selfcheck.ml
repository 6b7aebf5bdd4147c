(* The runner's own check: a generator that raises is reported as its
   test's failure, with the case seed, the runner goes on to the next
   test, and the summary exits nonzero.  test/prop/dune runs this and
   accepts exit code 1 alone: an exception that escapes the runner exits
   2, a miscount exits 3, and a summary that forgets the failure exits 0
   or 4. *)

let () =
  Prop.suite "prop runner self-check (one failure expected)";
  Prop.check ~name:"a generator that raises" ~count:3
    (fun _ -> failwith "raised on purpose")
    (fun () -> ());
  let ran = ref 0 in
  Prop.check ~name:"the next test still runs" ~count:3
    (fun _ -> ())
    (fun () -> incr ran);
  if Prop.failures () <> 1 || !ran <> 3 then begin
    Printf.eprintf
      "prop self-check: expected 1 failure and 3 cases run after it, got %d \
       and %d\n"
      (Prop.failures ()) !ran;
    exit 3
  end;
  Prop.exit_summary ();
  prerr_endline "prop self-check: the summary did not exit nonzero";
  exit 4
