(* "HOST:PORT" <-> Unix.sockaddr, the daemons' address syntax. *)

let loopback ~port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let parse s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "address %S: expected HOST:PORT" s)
  | Some i -> (
      let host = String.sub s 0 i in
      let port_s = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port_s with
      | None | Some 0 ->
          Error (Printf.sprintf "address %S: bad port %S" s port_s)
      | Some port when port < 0 || port > 0xffff ->
          Error (Printf.sprintf "address %S: bad port %S" s port_s)
      | Some port -> (
          if host = "" then Ok (loopback ~port)
          else
            match Unix.inet_addr_of_string host with
            | ip -> Ok (Unix.ADDR_INET (ip, port))
            | exception Failure _ -> (
                match Unix.gethostbyname host with
                | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                    Error (Printf.sprintf "address %S: unknown host %S" s host)
                | { Unix.h_addr_list; _ } ->
                    Ok (Unix.ADDR_INET (h_addr_list.(0), port)))))

let to_string = function
  | Unix.ADDR_INET (ip, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
  | Unix.ADDR_UNIX path -> path
