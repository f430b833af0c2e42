(* Starting, probing and stopping the service processes under test:
   [dse fleet serve] (rungs L3/L4 and every measured run) and
   [dse serve] (rung L2).  Paths are relative to the working directory,
   which keeps Unix socket paths short however deep the checkout is. *)

module C = Ds_serve.Client
module J = Ds_serve.Jsonx

type proc = {
  pid : int;  (** the process we exec'd: router, or the single server *)
  socket : string;
  dir : string;  (** state root *)
  mutable workers : int list;  (** fleet worker pids (router's children) *)
}

let live : proc list ref = ref []

let spawn ~log argv =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin fd fd in
  Unix.close fd;
  pid

(* Poll until the socket accepts a connection: a fleet router only
   listens once every worker is ready, so this is "fleet up". *)
let await_socket p =
  let deadline = Unix.gettimeofday () +. 120.0 in
  let rec go () =
    match C.connect ~socket:p.socket () with
    | Ok c -> C.close c
    | Error e ->
      if Unix.gettimeofday () > deadline then failwith ("service did not come up: " ^ e);
      (match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ -> ()
      | _ -> failwith ("service exited during start-up: " ^ e));
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let start ~dse ~dir ~args =
  Procs.mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let argv = Array.of_list ((dse :: args) @ [ "--socket"; socket ]) in
  let pid = spawn ~log:(Filename.concat dir "service.log") argv in
  let p = { pid; socket; dir; workers = [] } in
  live := p :: !live;
  p

let fleet_args ~dir ~workers ~capacity =
  [ "fleet"; "serve"; "-n"; string_of_int workers; "--dir"; Filename.concat dir "fleet";
    "--capacity"; string_of_int capacity ]

let serve_args ~dir ~capacity =
  [ "serve"; "--journal-dir"; Filename.concat dir "journal"; "--capacity"; string_of_int capacity ]

(* Start and wait until serving; [workers] is filled in for fleets. *)
let boot ~dse ~dir ~args =
  let p = start ~dse ~dir ~args in
  await_socket p;
  p.workers <- Procs.children p.pid;
  p

let forget p = live := List.filter (fun q -> q.pid <> p.pid) !live

let wait_ended pids =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    if List.exists (fun pid -> not (Procs.ended pid)) pids && Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let signal sig_ pid = try Unix.kill pid sig_ with Unix.Unix_error _ -> ()

(* Orderly stop: SIGTERM drains the router, which stops its workers;
   anything still alive after the grace period is killed. *)
let stop p =
  let workers = p.workers @ Procs.children p.pid in
  signal Sys.sigterm p.pid;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      signal Sys.sigkill p.pid;
      reap p.pid
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  List.iter (fun w -> if not (Procs.ended w) then signal Sys.sigkill w) workers;
  wait_ended workers;
  forget p

(* Crash: SIGKILL the router and every worker at once. *)
let kill p =
  let workers = p.workers @ Procs.children p.pid in
  List.iter (signal Sys.sigkill) (p.pid :: workers);
  reap p.pid;
  wait_ended workers;
  forget p

let cleanup () = List.iter (fun p -> try kill p with _ -> ()) !live

(* ----- requests outside the load loop -------------------------------- *)

let connect p =
  match C.connect ~socket:p.socket () with Ok c -> c | Error e -> failwith ("connect: " ^ e)

let metrics c =
  match C.request_line c "{\"op\":\"metrics\"}" with
  | Ok line -> (
    match J.of_string line with
    | Ok j -> Delta.of_json j
    | Error e -> failwith ("metrics reply: " ^ e))
  | Error e -> failwith ("metrics: " ^ e)

(* Send [reqs] pipelined in groups of [depth] over one plain client
   (no retries); returns the reply lines in order, [Error] for
   transport failures. *)
let pipelined ?(depth = 64) c (reqs : Reqgen.req list) =
  let rec go acc = function
    | [] -> List.rev acc
    | l ->
      let rec split n acc = function
        | x :: tl when n > 0 -> split (n - 1) (x :: acc) tl
        | rest -> (List.rev acc, rest)
      in
      let group, rest = split depth [] l in
      let replies = C.pipeline c (List.map (fun r -> r.Reqgen.line) group) in
      go (List.rev_append (List.combine group replies) acc) rest
  in
  go [] reqs
