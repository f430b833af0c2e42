module Obs = Ds_obs.Obs

type addr = Path of string | Tcp of string * int

type t = {
  fd : Unix.file_descr;
  path : string option;  (* unlinked after the drain *)
  port : int;
  recv_timeout : float;  (* 0.0 = reads block indefinitely *)
  stop : bool Atomic.t;
  lock : Mutex.t;
  active : (Unix.file_descr, unit) Hashtbl.t;
  drained : Condition.t;  (* signalled when [active] empties *)
  mutable served : int;
}

let env_trimmed name parse = Option.bind (Sys.getenv_opt name) (fun s -> parse (String.trim s))

(* DSE_IDLE_TIMEOUT: seconds of client silence before the connection is
   closed (default off) — leaked clients must not pin fds forever. *)
let idle_timeout = function
  | Some _ as t -> t
  | None -> (
    match env_trimmed "DSE_IDLE_TIMEOUT" float_of_string_opt with
    | Some f when f > 0.0 -> Some f
    | _ -> None)

let pipeline_depth depth =
  let depth =
    match depth with Some _ -> depth | None -> env_trimmed "DSE_PIPELINE_DEPTH" int_of_string_opt
  in
  match depth with Some d -> Stdlib.min 1024 (Stdlib.max 1 d) | None -> 16

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> Unix.inet_addr_loopback
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found -> Unix.inet_addr_loopback)

let bind ?recv_timeout addr =
  let sockaddr, path =
    match addr with
    | Path p ->
      (* replace a stale socket file from a previous (crashed) process *)
      (try Unix.unlink p with Unix.Unix_error _ -> ());
      (Unix.ADDR_UNIX p, Some p)
    | Tcp (host, port) -> (Unix.ADDR_INET (resolve host, port), None)
  in
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  (try
     if path = None then Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd sockaddr;
     Unix.listen fd 128;
     (* the stop poll: a blocked accept gives up with EAGAIN after
        0.2 s, so [shutdown] is noticed promptly without a select
        (which cannot watch a descriptor >= 1024) *)
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    path;
    port = (match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0);
    recv_timeout = (match recv_timeout with Some s when s > 0.0 -> s | _ -> 0.0);
    stop = Atomic.make false;
    lock = Mutex.create ();
    active = Hashtbl.create 64;
    drained = Condition.create ();
    served = 0;
  }

let port t = t.port

(* Callable from a signal handler: must not take locks (the signalled
   thread may already hold them).  The accept loop polls the flag. *)
let shutdown t = Atomic.set t.stop true

let install_signal_handlers t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop_on _ = shutdown t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on)

let connections_served t =
  Mutex.lock t.lock;
  let n = t.served in
  Mutex.unlock t.lock;
  n

let retire t fd =
  Mutex.lock t.lock;
  Hashtbl.remove t.active fd;
  t.served <- t.served + 1;
  (* close while holding the lock: the drain half-closes active fds
     under the same lock, so it can never race this close and hit a
     descriptor number the kernel has already recycled *)
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if Hashtbl.length t.active = 0 then Condition.broadcast t.drained;
  Mutex.unlock t.lock

let drain t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  Mutex.lock t.lock;
  (* half-close: a handler blocked on a read sees end-of-file, one
     mid-request finishes and writes its reply *)
  Hashtbl.iter
    (fun fd () -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.active;
  while Hashtbl.length t.active > 0 do
    Condition.wait t.drained t.lock
  done;
  Mutex.unlock t.lock;
  Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ()) t.path

let serve t ~spawn handle =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  while not (Atomic.get t.stop) do
    match Unix.accept ~cloexec:true t.fd with
    | fd, _ ->
      let accepted = Unix.gettimeofday () in
      (* always set: a TCP connection inherits the listener's 0.2 s
         accept poll otherwise *)
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.recv_timeout
       with Unix.Unix_error _ -> ());
      Mutex.lock t.lock;
      Hashtbl.replace t.active fd ();
      Mutex.unlock t.lock;
      spawn (fun () -> Fun.protect ~finally:(fun () -> retire t fd) (fun () -> handle ~accepted fd))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  done;
  drain t

let serve_lines t ~name ~max_request ~depth ~idle_reaped answer fd =
  let reader = Lineio.create fd in
  let out = Buffer.create 4096 in
  let requests = ref 0 in
  let fail code msg =
    Protocol.print_response_into out (Protocol.Failed (code, msg));
    Buffer.add_char out '\n'
  in
  let rec loop () =
    match Lineio.read_line ~limit:max_request reader with
    | Lineio.Eof -> ()
    | Lineio.Idle -> Obs.incr idle_reaped
    | first ->
      let read_at = Unix.gettimeofday () in
      (* lines awaiting [answer], newest first; an error reply the loop
         writes itself first answers the lines before it *)
      let pending = ref [] in
      let answer_pending () =
        if !pending <> [] then begin
          answer out ~read_at (List.rev !pending);
          pending := []
        end
      in
      let take = function
        | Lineio.Overflow ->
          incr requests;
          answer_pending ();
          fail Protocol.Request_too_large
            (Printf.sprintf "request line exceeds %d bytes" max_request)
        | Lineio.Line raw ->
          let line = String.trim raw in
          if not (String.equal line "") then begin
            incr requests;
            if Atomic.get t.stop then begin
              answer_pending ();
              fail Protocol.Shutting_down (name ^ " is shutting down")
            end
            else pending := line :: !pending
          end
        | Lineio.Eof | Lineio.Idle -> ()
      in
      take first;
      let rec drain_ready k =
        if k >= depth then `More
        else
          match Lineio.read_line_ready ~limit:max_request reader with
          | None -> `More
          | Some (Lineio.Eof | Lineio.Idle) -> `Eof
          | Some r ->
            take r;
            drain_ready (k + 1)
      in
      let after = drain_ready 1 in
      answer_pending ();
      Lineio.flush_buffer fd out;
      if after = `More && not (Atomic.get t.stop) then loop ()
  in
  (try loop () with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  !requests
