(** Bounded line reading over a raw [Unix] descriptor.

    The server's original reader was built on [In_channel], which can
    only block forever: a leaked client pins a worker and an fd until
    the process dies.  This reader works on the descriptor directly so
    an idle timeout can be pushed down to the kernel ([SO_RCVTIMEO], set
    by {!Listener} on each accepted connection) — a read that times out
    surfaces as {!Idle} instead of wedging the worker.  The server, the
    fleet router and the client all read lines through it. *)

type t

val create : Unix.file_descr -> t
(** Wrap [fd].  A blocking read gives up with {!Idle} when the
    descriptor's receive timeout expires; without one it blocks until
    the peer speaks or hangs up. *)

type result =
  | Line of string  (** one request line, newline stripped *)
  | Overflow  (** the line exceeded [limit]; its bytes were drained *)
  | Eof  (** peer closed (a final unterminated line is returned as {!Line} first) *)
  | Idle  (** no byte arrived within the receive timeout *)

val read_line : limit:int -> t -> result
(** Next line from the stream.  A line longer than [limit] bytes is
    discarded through its terminating newline and reported as
    {!Overflow} — the connection stays usable, matching the server's
    historical [request_too_large] behaviour. *)

val read_line_ready : limit:int -> t -> result option
(** Like {!read_line} but never waits: consumes only bytes already
    buffered, plus — when the last read filled the buffer — one
    non-blocking read, answering [None] the moment more would require
    blocking.  Works on any descriptor number.  The pipelined line loop
    drains a client's burst with this — one blocking read for the first
    line, ready-reads for the rest of the flush. *)

val flush_buffer : Unix.file_descr -> Buffer.t -> unit
(** Write the buffer's whole contents to [fd] (looping over short
    writes) and clear it — the coalesced "one flush per drain" write
    every pipelined peer uses.  Raises [Unix.Unix_error] on a dead
    peer. *)
