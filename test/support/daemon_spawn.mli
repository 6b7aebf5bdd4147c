(** Loopback plumbing for suites and benches that run chain servers as
    separate processes: socket probing, port picking, spawning the
    [vuvuzela-server] executable, and reaping. *)

val sockets_allowed : unit -> bool
(** Whether this sandbox lets a process bind a loopback TCP socket. *)

val free_ports : int -> int array
(** [free_ports k]: [k] distinct loopback ports below the low end of the
    kernel's ephemeral range ([ip_local_port_range]), so no outgoing
    connection can take one as its local port before a daemon binds it.
    Each was free a moment ago: a bind without [SO_REUSEADDR] took it
    and released it.  A test takes every port it needs from one call.
    @raise Failure after 1000 tries without [k] free ports. *)

val server_bin : unit -> string
(** Where the build puts [bin/server_main.exe], relative to the running
    executable's build directory (one level below the build root). *)

val spawn_server :
  bin:string ->
  ports:int array ->
  index:int ->
  seed:string ->
  string list ->
  int
(** Start server [index] of a [Array.length ports]-server chain that
    listens on [ports.(index)] and, unless it is the last, dials
    [ports.(index + 1)]; the extra command-line arguments follow the
    chain position and seed.  Returns the pid. *)

val stop_pid : int -> unit
(** Wait up to 3 seconds for the process to exit on
    its own — a daemon that received [Bye] does — then SIGKILL it;
    always reaped. *)
