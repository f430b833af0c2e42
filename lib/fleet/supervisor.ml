type spec = {
  w_name : string;
  w_socket : string;
  w_argv : string array;
  w_log : string option;
}

type worker = {
  spec : spec;
  probe_target : Backend.t;  (* probe-only; never pools connections *)
  mutable pid : int;
  mutable restarts : int;
  mutable probe_failures : int;
  mutable spawned_at : float;
}

type t = {
  workers : worker list;  (* sorted by name, fixed at start *)
  health_interval : float;
  health_timeout : float;
  max_probe_failures : int;
  boot_grace : float;
  on_restart : string -> unit;
  lock : Mutex.t;
  stop_flag : bool Atomic.t;
  mutable monitor : Thread.t option;
}

(* The child gets these as its stdio (dup'd, which drops close-on-exec);
   the flag keeps a worker spawned concurrently from inheriting them. *)
let spawn spec =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let log =
    match spec.w_log with
    | Some path ->
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
    | None -> Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close devnull with Unix.Unix_error _ -> ());
      try Unix.close log with Unix.Unix_error _ -> ())
    (fun () -> Unix.create_process spec.w_argv.(0) spec.w_argv devnull log log)

let try_kill pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* Reap without blocking; [`Dead] covers both a real exit and a pid we
   have already reaped (ECHILD). *)
let reap_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> `Alive
  | _ -> `Dead
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> `Dead
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Alive

let restart_locked t w =
  (* remove the stale socket before the replacement binds: a connect to
     the old inode would hang instead of failing fast *)
  (try Unix.unlink w.spec.w_socket with Unix.Unix_error _ -> ());
  w.pid <- spawn w.spec;
  w.restarts <- w.restarts + 1;
  w.probe_failures <- 0;
  w.spawned_at <- Unix.gettimeofday ();
  t.on_restart w.spec.w_name

let monitor_tick t =
  List.iter
    (fun w ->
      Mutex.lock t.lock;
      let pid = w.pid in
      Mutex.unlock t.lock;
      match reap_nohang pid with
      | `Dead ->
        Mutex.lock t.lock;
        if w.pid = pid && not (Atomic.get t.stop_flag) then restart_locked t w;
        Mutex.unlock t.lock
      | `Alive -> (
        match Backend.probe ~timeout:t.health_timeout w.probe_target with
        | Ok _ ->
          Mutex.lock t.lock;
          w.probe_failures <- 0;
          Mutex.unlock t.lock
        | Error _ ->
          Mutex.lock t.lock;
          (* a worker that is still booting (binding its socket,
             resuming journals) fails probes without being wedged:
             counting those failures turns every restart into a
             restart storm, because the wedge threshold can elapse
             before the replacement ever becomes reachable *)
          let booting = Unix.gettimeofday () -. w.spawned_at < t.boot_grace in
          if not booting then w.probe_failures <- w.probe_failures + 1;
          let wedged = w.probe_failures >= t.max_probe_failures in
          Mutex.unlock t.lock;
          if wedged then begin
            (* alive but unresponsive: no graceful path left *)
            try_kill pid Sys.sigkill;
            ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0));
            Mutex.lock t.lock;
            if not (Atomic.get t.stop_flag) then restart_locked t w;
            Mutex.unlock t.lock
          end))
    t.workers

let start ?(health_interval = 0.5) ?(health_timeout = 1.0) ?(max_probe_failures = 3)
    ?(boot_grace = 5.0) ?(on_restart = fun _ -> ()) specs =
  let workers =
    specs
    |> List.sort (fun a b -> String.compare a.w_name b.w_name)
    |> List.map (fun spec ->
           {
             spec;
             probe_target = Backend.create ~slots:1 ~name:spec.w_name ~socket:spec.w_socket ();
             pid = spawn spec;
             restarts = 0;
             probe_failures = 0;
             spawned_at = Unix.gettimeofday ();
           })
  in
  let t =
    {
      workers;
      health_interval;
      health_timeout;
      max_probe_failures;
      boot_grace;
      on_restart;
      lock = Mutex.create ();
      stop_flag = Atomic.make false;
      monitor = None;
    }
  in
  let monitor () =
    while not (Atomic.get t.stop_flag) do
      monitor_tick t;
      Thread.delay t.health_interval
    done
  in
  t.monitor <- Some (Thread.create monitor ());
  t

let await_ready ?(timeout = 30.0) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait_for w =
    match Backend.probe ~timeout:t.health_timeout w.probe_target with
    | Ok _ -> Ok ()
    | Error msg ->
      if Unix.gettimeofday () >= deadline then
        Error (Printf.sprintf "worker %s not ready: %s" w.spec.w_name msg)
      else begin
        Thread.delay 0.05;
        wait_for w
      end
  in
  List.fold_left
    (fun acc w -> match acc with Ok () -> wait_for w | e -> e)
    (Ok ()) t.workers

let find t name = List.find_opt (fun w -> String.equal w.spec.w_name name) t.workers

let pid t name =
  Option.map
    (fun w ->
      Mutex.lock t.lock;
      let p = w.pid in
      Mutex.unlock t.lock;
      p)
    (find t name)

let restarts t =
  List.map
    (fun w ->
      Mutex.lock t.lock;
      let r = w.restarts in
      Mutex.unlock t.lock;
      (w.spec.w_name, r))
    t.workers

let workers t = List.map (fun w -> (w.spec.w_name, w.spec.w_socket)) t.workers

let stop t =
  Atomic.set t.stop_flag true;
  (match t.monitor with Some th -> Thread.join th | None -> ());
  List.iter (fun w -> try_kill w.pid Sys.sigterm) t.workers;
  let deadline = Unix.gettimeofday () +. 5.0 in
  List.iter
    (fun w ->
      let rec wait () =
        match reap_nohang w.pid with
        | `Dead -> ()
        | `Alive ->
          if Unix.gettimeofday () >= deadline then begin
            try_kill w.pid Sys.sigkill;
            ignore
              (try Unix.waitpid [] w.pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
          end
          else begin
            Thread.delay 0.05;
            wait ()
          end
      in
      wait ();
      Backend.close w.probe_target)
    t.workers
