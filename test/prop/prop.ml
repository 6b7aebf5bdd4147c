(* Mini property-test framework for the differential crypto suites.

   Deliberately tiny and dependency-free: every generated case draws its
   bytes from a ChaCha20-DRBG seeded with "<master>/<test name>/<case #>",
   so a failure report names the exact seed string that reproduces it —
   rerun with PROP_SEED=<master> (or paste the full case seed into a
   one-off Drbg.of_string) and case N regenerates bit-for-bit.  No
   shrinking: differential failures are already minimal enough to debug
   from the printed hex. *)

open Vuvuzela_crypto

type 'a gen = Drbg.t -> 'a

let master_seed =
  match Sys.getenv_opt "PROP_SEED" with
  | Some s when s <> "" -> s
  | _ -> "vuvuzela-prop-1"

let case_seed ~name i = Printf.sprintf "%s/%s/%d" master_seed name i

(* Counters for the final summary. *)
let suites = ref 0
let tests = ref 0
let cases = ref 0
let failures = ref 0

exception Counterexample of string

let fail fmt = Printf.ksprintf (fun s -> raise (Counterexample s)) fmt
let require ok fmt = Printf.ksprintf (fun s -> if not ok then raise (Counterexample s)) fmt

let check_hex ~what expected actual =
  if expected <> actual then
    fail "%s:\n         expected %s\n         got      %s" what expected actual

let suite name =
  incr suites;
  Printf.printf "\n%s\n" name

let report_failure name ~case ~count ~seed msg =
  incr failures;
  Printf.printf "  FAIL %-46s case %d of %d\n" name case count;
  Printf.printf "       reproducing seed: %S\n" seed;
  Printf.printf "       %s\n%!" msg

(* Run [prop] over [count] generated cases; stops a test at its first
   counterexample (later cases of the same test rarely add signal) but
   keeps running the remaining tests so one regression doesn't mask
   another.  A generator that raises is that case's failure too: under
   a broken field a generator can raise as well as a property. *)
let check ~name ?(count = 1000) (gen : 'a gen) (prop : 'a -> unit) =
  incr tests;
  let failed = ref false in
  let fail_case i seed msg =
    report_failure name ~case:i ~count ~seed msg;
    failed := true;
    raise Exit
  in
  (try
     for i = 0 to count - 1 do
       let seed = case_seed ~name i in
       let rng = Drbg.of_string seed in
       let x =
         try gen rng
         with e ->
           fail_case i seed ("generator raised: " ^ Printexc.to_string e)
       in
       incr cases;
       try prop x with
       | Counterexample msg -> fail_case i seed msg
       | e -> fail_case i seed ("unexpected exception: " ^ Printexc.to_string e)
     done
   with Exit -> ());
  if not !failed then Printf.printf "  ok   %-46s %5d cases\n%!" name count

(* A single deterministic case (RFC vectors, fixed edge inputs). *)
let vector ~name (f : unit -> unit) =
  incr tests;
  incr cases;
  try
    f ();
    Printf.printf "  ok   %-46s vector\n%!" name
  with
  | Counterexample msg ->
      report_failure name ~case:0 ~count:1 ~seed:"(none: fixed vector)" msg
  | e ->
      report_failure name ~case:0 ~count:1 ~seed:"(none: fixed vector)"
        ("unexpected exception: " ^ Printexc.to_string e)

(* Generators. *)
let gen_bytes n rng = Drbg.generate rng n
let gen_fe_bytes rng = Drbg.generate rng 32
let gen_pair g1 g2 rng =
  let a = g1 rng in
  let b = g2 rng in
  (a, b)

let exit_summary () =
  Printf.printf
    "\n%d suites, %d tests, %d cases, %d failure%s  (master seed %S)\n"
    !suites !tests !cases !failures
    (if !failures = 1 then "" else "s")
    master_seed;
  if !failures > 0 then exit 1

let failures () = !failures
