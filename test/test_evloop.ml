(* The event loop's dispatch-safety contract, exercised at its edges:
   handlers may mutate the fd and timer tables from inside callbacks,
   [run_until] must report deadline expiry, and the 100 ms select cap
   must never delay a nearer timer. *)

module Evloop = Vuvuzela_transport.Evloop
module Clock = Vuvuzela_transport.Clock

(* A timer registered from inside a firing timer waits for the next
   dispatch round — it must not fire in the same [fire_due] pass (that
   would make a 0 ms self-rearming timer an infinite loop). *)
let test_timer_registered_in_callback () =
  let loop = Evloop.create () in
  let order = ref [] in
  ignore
    (Evloop.after loop ~ms:0. (fun () ->
         order := "outer" :: !order;
         ignore
           (Evloop.after loop ~ms:0. (fun () -> order := "inner" :: !order))));
  Evloop.run_once ~max_wait_ms:5. loop;
  Alcotest.(check (list string))
    "inner deferred to the next round" [ "outer" ] (List.rev !order);
  Evloop.run_once ~max_wait_ms:5. loop;
  Alcotest.(check (list string))
    "inner fired on the next round" [ "outer"; "inner" ] (List.rev !order)

(* A pending (not-yet-due) timer cancelled from inside a callback never
   fires. *)
let test_timer_cancelled_in_callback () =
  let loop = Evloop.create () in
  let fired = ref false in
  let victim = ref (-1) in
  ignore (Evloop.after loop ~ms:0. (fun () -> Evloop.cancel loop !victim));
  victim := Evloop.after loop ~ms:20. (fun () -> fired := true);
  ignore (Evloop.run_until ~deadline_ms:80. loop (fun () -> false));
  Alcotest.(check bool) "cancelled timer stayed dead" false !fired

(* Timers fire in fire-at order regardless of registration order. *)
let test_timer_order () =
  let loop = Evloop.create () in
  let order = ref [] in
  ignore (Evloop.after loop ~ms:15. (fun () -> order := "late" :: !order));
  ignore (Evloop.after loop ~ms:2. (fun () -> order := "early" :: !order));
  ignore
    (Evloop.run_until ~deadline_ms:200. loop (fun () ->
         List.length !order = 2));
  Alcotest.(check (list string))
    "fire-at order" [ "early"; "late" ] (List.rev !order)

(* [run_until] with a predicate that never holds returns [false] only
   after the deadline actually elapsed. *)
let test_run_until_deadline () =
  let loop = Evloop.create () in
  let t0 = Clock.now_ms () in
  let r = Evloop.run_until ~deadline_ms:50. loop (fun () -> false) in
  let elapsed = Clock.now_ms () -. t0 in
  Alcotest.(check bool) "deadline reported as false" false r;
  if elapsed < 45. then
    Alcotest.failf "run_until returned after %.1f ms (deadline 50)" elapsed;
  (* ... and an immediately-true predicate returns without waiting. *)
  let t0 = Clock.now_ms () in
  let r = Evloop.run_until ~deadline_ms:5_000. loop (fun () -> true) in
  Alcotest.(check bool) "immediate predicate" true r;
  if Clock.now_ms () -. t0 > 1_000. then
    Alcotest.fail "true predicate still waited"

(* Two fds ready in the same select round, each handler removing the
   other: exactly one handler may run — the dispatch loop must re-check
   registration, never invoke a freshly removed fd's handler. *)
let test_fd_removed_mid_dispatch () =
  let loop = Evloop.create () in
  let a_out, a_in = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let b_out, b_in = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a_out; a_in; b_out; b_in ])
    (fun () ->
      let calls = ref 0 in
      Evloop.add_fd loop a_in
        ~on_readable:(fun () ->
          incr calls;
          Evloop.remove_fd loop b_in)
        ~on_writable:ignore;
      Evloop.add_fd loop b_in
        ~on_readable:(fun () ->
          incr calls;
          Evloop.remove_fd loop a_in)
        ~on_writable:ignore;
      (* make both readable before the select round *)
      ignore (Unix.write a_out (Bytes.of_string "x") 0 1);
      ignore (Unix.write b_out (Bytes.of_string "x") 0 1);
      Evloop.run_once ~max_wait_ms:200. loop;
      Alcotest.(check int) "exactly one handler ran" 1 !calls;
      (* the survivor keeps working on the next round *)
      Evloop.run_once ~max_wait_ms:50. loop;
      Alcotest.(check int) "removed fd never dispatched" 2 !calls)

(* A 30 ms timer with no [max_wait_ms] must preempt the 100 ms default
   select cap: the loop sleeps until the timer, not the cap. *)
let test_timer_precision_under_select_cap () =
  let loop = Evloop.create () in
  let fired = ref false in
  ignore (Evloop.after loop ~ms:30. (fun () -> fired := true));
  let t0 = Clock.now_ms () in
  while (not !fired) && Clock.now_ms () -. t0 < 500. do
    Evloop.run_once loop
  done;
  let elapsed = Clock.now_ms () -. t0 in
  Alcotest.(check bool) "timer fired" true !fired;
  if elapsed < 25. then
    Alcotest.failf "timer fired %.1f ms early" (30. -. elapsed);
  if elapsed > 90. then
    Alcotest.failf
      "timer took %.1f ms — the 100 ms select cap swallowed a 30 ms timer"
      elapsed

let suite =
  ( "evloop",
    [
      Alcotest.test_case "timer registered inside a callback" `Quick
        test_timer_registered_in_callback;
      Alcotest.test_case "timer cancelled inside a callback" `Quick
        test_timer_cancelled_in_callback;
      Alcotest.test_case "timers fire in fire-at order" `Quick
        test_timer_order;
      Alcotest.test_case "run_until deadline returns false" `Quick
        test_run_until_deadline;
      Alcotest.test_case "fd removed during dispatch" `Quick
        test_fd_removed_mid_dispatch;
      Alcotest.test_case "timer precision under the select cap" `Quick
        test_timer_precision_under_select_cap;
    ] )
