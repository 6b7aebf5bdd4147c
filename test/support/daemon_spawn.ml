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

(* The low end of the kernel's ephemeral port range: the ports it hands
   out for bind(0) and for the local end of every outgoing connection. *)
let ephemeral_low () =
  try
    In_channel.with_open_text "/proc/sys/net/ipv4/ip_local_port_range"
      (fun ic -> Scanf.sscanf (In_channel.input_all ic) " %d" Fun.id)
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> 32768

(* A port the kernel hands out for bind(0) can be taken, before the
   daemon binds it, as the local end of a connection a daemon or the
   coordinator opens; that daemon then cannot listen, and its chain
   fails the handshake.  So pick at random below the ephemeral range,
   and keep a port only if a bind without SO_REUSEADDR takes it (nothing
   listens there and no connection lingers in TIME_WAIT). *)
let free_ports k =
  let low = ephemeral_low () in
  let rng = Random.State.make_self_init () in
  let free port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
        | () -> true
        | exception Unix.Unix_error _ -> false)
  in
  let rec pick acc found tries =
    if found = k then Array.of_list (List.rev acc)
    else if tries = 0 then
      failwith "Daemon_spawn.free_ports: no free port below the ephemeral range"
    else
      let port = 1024 + Random.State.int rng (max 1 (low - 1024)) in
      if List.mem port acc || not (free port) then pick acc found (tries - 1)
      else pick (port :: acc) (found + 1) (tries - 1)
  in
  pick [] 0 1000

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
