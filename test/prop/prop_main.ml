(* Runner for the differential property-test harness.  Part of the
   default `dune runtest`; `dune build @prop` runs just this suite.
   Rerun a failure with PROP_SEED set to the master seed printed in the
   report. *)

let () =
  Printf.printf "differential property tests (master seed %S)\n"
    Prop.master_seed;
  Prop_fe.run ();
  Prop_x25519.run ();
  Prop_ed25519.run ();
  Prop_chacha.run ();
  Prop_aead.run ();
  Prop_pool.run ();
  Prop_deaddrop.run ();
  Prop_replay.run ();
  Prop.exit_summary ()
