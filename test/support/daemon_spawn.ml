(* See the interface. *)

let sockets_allowed () =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | fd -> (
      match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) with
      | () ->
          Unix.close fd;
          true
      | exception Unix.Unix_error _ ->
          Unix.close fd;
          false)

(* Bind port 0, read the assignment, release it.  The daemon rebinds
   moments later under SO_REUSEADDR; collisions on loopback in a test
   sandbox are vanishingly rare. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let server_bin () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/server_main.exe"

let spawn_server ~bin ~ports ~index ~seed args =
  let chain_len = Array.length ports in
  let port i = Printf.sprintf ":%d" ports.(i) in
  let argv =
    [ bin; "--listen"; port index; "--index"; string_of_int index;
      "--chain-len"; string_of_int chain_len; "--seed"; seed ]
    @ args
    @ (if index < chain_len - 1 then [ "--next"; port (index + 1) ] else [])
    @ [ "--quiet" ]
  in
  Unix.create_process bin (Array.of_list argv) Unix.stdin Unix.stdout
    Unix.stderr

let stop_pid pid =
  let deadline = Unix.gettimeofday () +. 3.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.02;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()
