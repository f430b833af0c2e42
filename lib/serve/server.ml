module Obs = Ds_obs.Obs

type t = {
  service : Service.t;
  listener : Listener.t;
  pool : int;
  max_request : int;
  pipeline_depth : int;
  jobs : (unit -> unit) option Queue.t;  (* accepted connections; None = worker stop sentinel *)
  lock : Mutex.t;
  nonempty : Condition.t;
  idle_reaped : Obs.counter;
}

let create ~socket ?(pool = 8) ?(max_request = 1024 * 1024) ?pipeline_depth ?idle_timeout
    service =
  {
    service;
    listener =
      Listener.bind ?recv_timeout:(Listener.idle_timeout idle_timeout) (Listener.Path socket);
    pool = Stdlib.max 1 pool;
    max_request = Stdlib.max 1024 max_request;
    pipeline_depth = Listener.pipeline_depth pipeline_depth;
    jobs = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    idle_reaped = Obs.counter (Service.registry service) "dse_serve_idle_reaped_total";
  }

let shutdown t = Listener.shutdown t.listener

let install_signal_handlers t = Listener.install_signal_handlers t.listener

let connections_served t = Listener.connections_served t.listener

(* One connection, on the worker that picked it up: the shared
   pipelined line loop, each request dispatched in arrival order.  The
   wait from accept to this pickup is the server-side queueing delay
   reported under [stats]; a request's [queue_us] phase is the wait
   from its group's read to its dispatch.

   The whole accept→dispatch→reply life of the connection is one
   [server.connection] span; the per-request [op.*] spans
   {!Service.handle} opens nest under it (same worker domain/thread). *)
let serve_connection t ~accepted fd =
  let queue_wait_us = (Unix.gettimeofday () -. accepted) *. 1.0e6 in
  Service.record_queue_wait t.service queue_wait_us;
  let sp =
    Obs.span_begin "server.connection"
      ~attrs:[ ("queue_wait_us", Printf.sprintf "%.1f" queue_wait_us) ]
  in
  let requests = ref 0 in
  Fun.protect
    ~finally:(fun () -> Obs.span_end sp ~attrs:[ ("requests", string_of_int !requests) ])
    (fun () ->
      requests :=
        Listener.serve_lines t.listener ~name:"server" ~max_request:t.max_request
          ~depth:t.pipeline_depth ~idle_reaped:t.idle_reaped
          (fun out ~read_at lines ->
            List.iter
              (fun line ->
                let queue_us = (Unix.gettimeofday () -. read_at) *. 1.0e6 in
                Service.handle_line_into ~queue_us t.service out line;
                Buffer.add_char out '\n')
              lines)
          fd)

let push t job =
  Mutex.lock t.lock;
  Queue.push job t.jobs;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock

let worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.jobs do
      Condition.wait t.nonempty t.lock
    done;
    let job = Queue.pop t.jobs in
    Mutex.unlock t.lock;
    match job with
    | None -> ()
    | Some run ->
      run ();
      loop ()
  in
  loop ()

type worker_handle = W_domain of unit Stdlib.Domain.t | W_thread of Thread.t

let join_worker = function
  | W_domain d -> Stdlib.Domain.join d
  | W_thread th -> Thread.join th

let serve t =
  (* Workers up to the core count are domains: request handling
     (candidate sweeps, report rendering) is compute, {!Service.handle}
     no longer serializes requests, and separate domains execute them
     in parallel.  Workers beyond the core count are systhreads of the
     main domain: they still overlap blocking I/O (the runtime lock
     drops during reads) but add no domains — every domain beyond the
     core count joins each GC's stop-the-world handshake from a
     timeshared CPU, which costs more than the parallelism it could
     ever add.  (On a single-core host this makes all workers
     systhreads, which is optimal there.) *)
  let max_domains = Stdlib.Domain.recommended_domain_count () - 1 in
  let workers =
    List.init t.pool (fun i ->
        if i < max_domains then W_domain (Stdlib.Domain.spawn (worker t))
        else W_thread (Thread.create (worker t) ()))
  in
  (* returns once every accepted connection has been served and
     retired; then the idle workers are woken with sentinels *)
  Listener.serve t.listener ~spawn:(fun job -> push t (Some job)) (serve_connection t);
  List.iter (fun _ -> push t None) workers;
  List.iter join_worker workers
