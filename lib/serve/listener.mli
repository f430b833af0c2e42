(** The one socket listener behind every front end: the worker
    {!Server}, the fleet router and the HTTP plane ({!Httpd}).

    A listener owns the listening socket (a Unix path or a TCP
    endpoint, created close-on-exec so a worker the supervisor spawns
    never inherits it), the accept loop with its signal-safe stop flag,
    the set of active connections, the receive timeout on each accepted
    connection, and the drain: close the listening socket, half-close
    every active connection, wait until the set is empty, unlink the
    socket file.  How an accepted connection is run stays with the
    caller ([spawn] in {!serve}): the server hands it to its bounded
    pool, the router and the HTTP plane give it a systhread.

    {!serve_lines} is the pipelined line loop the server and the router
    share: block for one request line, drain the lines that have
    already arrived (up to the pipeline depth), answer the group, and
    write every reply in arrival order through one flush. *)

type addr =
  | Path of string  (** a Unix-domain socket file (a stale one is replaced) *)
  | Tcp of string * int  (** host (name or address) and port; port 0 = ephemeral *)

type t

val bind : ?recv_timeout:float -> addr -> t
(** Bind and listen.  [recv_timeout] (seconds, > 0) is set on every
    accepted connection, so a blocked read gives up after that long
    ([Lineio.Idle]); without it reads block until the peer speaks or
    hangs up.
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The bound TCP port (the actual one after ephemeral resolution);
    0 for a Unix path. *)

val serve :
  t -> spawn:((unit -> unit) -> unit) -> (accepted:float -> Unix.file_descr -> unit) -> unit
(** Accept until {!shutdown}.  Each accepted connection joins the
    active set and is handed to [spawn] as a job that runs the handler
    (with the accept wall-clock time) and then retires the connection:
    closes it and counts it in {!connections_served}.  After
    {!shutdown}: the drain, then return.  SIGPIPE is ignored from the
    first call on — a peer hanging up mid-reply must surface as EPIPE,
    not kill the process. *)

val shutdown : t -> unit
(** Idempotent, callable from any thread or from a signal handler (it
    only sets a flag; the accept loop notices it within 0.2 s). *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT -> {!shutdown}; SIGPIPE -> ignored. *)

val connections_served : t -> int
(** Connections retired so far. *)

val idle_timeout : float option -> float option
(** The effective line-protocol idle timeout: an explicit value as
    given, else [DSE_IDLE_TIMEOUT] when it parses to seconds > 0, else
    [None] (off).  Server and router resolve theirs here. *)

val pipeline_depth : int option -> int
(** The effective pipeline depth: an explicit value, else an integer
    [DSE_PIPELINE_DEPTH], else 16 — clamped to 1..1024.  Depth 1 is
    strict request/reply lockstep. *)

val serve_lines :
  t ->
  name:string ->
  max_request:int ->
  depth:int ->
  idle_reaped:Ds_obs.Obs.counter ->
  (Buffer.t -> read_at:float -> string list -> unit) ->
  Unix.file_descr ->
  int
(** Run one pipelined line-protocol connection until the peer hangs up,
    goes idle past the receive timeout (counted in [idle_reaped]) or
    the listener stops.  Each group of request lines (trimmed, blank
    lines skipped, oldest first) goes to the answer function, which
    appends one reply line per request to the buffer; [read_at] is when
    the group's first line was read.  The loop itself answers a line
    longer than [max_request] with [request_too_large] and, once the
    listener is stopping, every further line with [shutting_down]
    ("<name> is shutting down"), keeping arrival order.  Returns the
    number of requests answered. *)
