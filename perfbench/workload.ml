(* One measured run of a workload against [dse fleet serve -n 2]:

   set-up (repeated, median reported) -> fixed-volume phase -> SIGKILL
   of router and workers -> restart on the same state dir and resume of
   every session (recovery) -> rounds of closed-loop phases ->
   correctness check of every session against an in-process replay.

   The recovery point always follows a fixed number of requests, so the
   state being recovered does not grow when the service gets faster. *)

module P = Ds_serve.Protocol
module C = Ds_serve.Client
module J = Ds_serve.Jsonx
module Session = Ds_layer.Session
module R = Reqgen

type plan = {
  wl : R.workload;
  steps : int;  (** requests per connection before the kill *)
  phases : (int * float) list;
      (** closed-loop phases after recovery, in order: requests in flight
          per connection, share of --seconds *)
  latency_from : int;  (** index into [phases] *)
  rate_from : int;  (** throughput and CPU *)
  warmup : int;  (** unmeasured requests of load before a phase's first round *)
}

(* Every workload runs a 2-worker fleet whose per-shard capacity holds
   the whole working set, and repeats set-up and recovery three times:
   set-up reports the median, recovery the fastest of the three, since
   a busy host only ever slows a recovery down. *)
let workers = 2
let capacity = 8192
let reps = 3

(* The measured phases run in [rounds] interleaved rounds, each a
   [rounds]th of the phase's time, and every figure pools the samples of
   all rounds: a slow spell of the host, seconds long, then weighs on
   every phase alike and on a fifth of each.  Later rounds re-warm for
   [rewarm] seconds after the switch of load. *)
let rounds = 5
let rewarm = 0.25

(* A fixed-volume warm-up that has not ended after this long fails on
   the drain timeout instead of running on. *)
let warmup_cap = 120.0

(* fleet-idct measures latency with a closed loop, one request in flight
   per connection.  On the 2-vCPU VM it was tuned on, the p99 of a 3000
   req/s open loop tracked host stalls, 0.8-15 ms between runs, and a
   single connection (half the cores idle between requests) tracked the
   host's speed more than two: p99 spread 0.7 against 0.3 over runs
   alternating the two.  Its throughput phase runs first, so that the
   latency rounds start after the resumed fleet has seen every session:
   run first, the latency loop's first round read slower than the rest. *)
let plans =
  [
    {
      wl = R.fleet_idct;
      steps = 10_240;
      phases = [ (16, 0.5); (1, 0.5) ];
      latency_from = 1;
      rate_from = 0;
      warmup = 40_000;
    };
    {
      wl = R.explore_gen100k;
      steps = 48;
      phases = [ (1, 1.0) ];
      latency_from = 0;
      rate_from = 0;
      warmup = 3_000;
    };
  ]

let find name = List.find_opt (fun p -> p.wl.R.name = name) plans

(* ----- bookkeeping ------------------------------------------------------ *)

(* Counters are atomic: set-up and signature sweeps run one thread per
   connection. *)
type book = {
  acks : P.request list array;  (** acknowledged mutations per session, newest first *)
  attempted : int Atomic.t;
  failed : int Atomic.t;
}

let new_book n = { acks = Array.make n []; attempted = Atomic.make 0; failed = Atomic.make 0 }
let attempt b n = ignore (Atomic.fetch_and_add b.attempted n)

(* Count one failure and say what it was on stderr. *)
let fail b fmt =
  Printf.ksprintf
    (fun s ->
      Atomic.incr b.failed;
      prerr_endline ("perfbench: " ^ s))
    fmt

let on_ack b (r : R.req) =
  match R.mutations r.preq with
  | [] -> ()
  | ms -> b.acks.(r.sess) <- List.rev_append ms b.acks.(r.sess)

let mutation_count b = Array.fold_left (fun a l -> a + List.length l) 0 b.acks

let account b (res : Loadgen.result) =
  attempt b res.stats.sent;
  ignore (Atomic.fetch_and_add b.failed res.stats.failed);
  List.iter (fun e -> prerr_endline ("perfbench: failed: " ^ e)) res.stats.errors

(* Run [f c] on one thread per connection index, collecting results. *)
let per_conn n f =
  let out = Array.make n None in
  let ts = List.init n (fun c -> Thread.create (fun () -> out.(c) <- Some (f c)) ()) in
  List.iter Thread.join ts;
  Array.map Option.get out

(* Session-indexed requests sent outside the load loop (opens, resumes,
   signature reads), pipelined over client [cl]; the reply line of each
   success lands in [replies], failures are counted. *)
let bulk_on b cl (reqs : R.req list) replies =
  List.iter
    (fun ((r : R.req), reply) ->
      attempt b 1;
      match reply with
      | Ok line when Loadgen.reply_ok r line -> replies.(r.sess) <- Some line
      | Ok line ->
        fail b "failed: %s -> %s" r.line line
      | Error e ->
        fail b "failed: %s -> %s" r.line e)
    (Fleetctl.pipelined cl reqs)

(* [bulk_on] for every session, each connection sending its own share
   from its own thread. *)
let bulk b (p : Fleetctl.proc) shape mk =
  let n = Array.length shape.R.sessions in
  let replies = Array.make n None in
  let conns = R.conns in
  ignore
    (per_conn conns (fun c ->
         let cl = Fleetctl.connect p in
         bulk_on b cl (List.map (mk shape) (Array.to_list (R.owned ~conns ~c n))) replies;
         C.close cl));
  replies

let signature_of line =
  match J.of_string line with Ok j -> J.str_member "signature" j | Error _ -> None

let signatures b p shape = Array.map (fun r -> Option.bind r signature_of) (bulk b p shape R.signature_req)

(* ----- in-process oracle ------------------------------------------------ *)

let apply s = function
  | P.Set { name; value; _ } -> Session.set s name value
  | P.Default { name; _ } -> Session.set_default s name
  | P.Retract { name; _ } -> Session.retract s name
  | P.Annotate { text; _ } -> Ok (Session.annotate s text)
  | _ -> Error "not a mutation"

let base_sessions : (string, Session.t) Hashtbl.t = Hashtbl.create 4

let base layer =
  match Hashtbl.find_opt base_sessions layer with
  | Some s -> s
  | None -> (
    match Ds_domains.Catalog.session layer ~eol:768 with
    | Ok s ->
      Hashtbl.replace base_sessions layer s;
      s
    | Error e -> failwith e)

(* Replay each session's acknowledged mutations on a pristine session
   of the same catalog factory and compare the final candidate
   signature with the service's. *)
let verify b shape (got : string option array) =
  let base = base shape.R.layer in
  Array.iteri
    (fun i acks ->
      let expected =
        List.fold_left
          (fun acc m -> Result.bind acc (fun s -> apply s m))
          (Ok (Session.pristine base)) (List.rev acks)
      in
      match (expected, got.(i)) with
      | Ok s, Some g when String.equal (Session.candidate_signature s) g -> ()
      | Ok s, Some g ->
        fail b "session %s: signature %s, replay gives %s" shape.sessions.(i) g
          (Session.candidate_signature s)
      | Error e, _ ->
        fail b "session %s: replay of acknowledged mutations failed: %s" shape.sessions.(i) e
      | Ok _, None -> () (* the signature read itself already counted as failed *))
    b.acks

(* ----- process accounting ------------------------------------------------ *)

let fleet_pids (p : Fleetctl.proc) = p.pid :: p.workers

let cpu_of pids = List.map (fun pid -> (pid, Option.value (Procs.cpu_s pid) ~default:0.0)) pids

let cpu_delta before after =
  List.fold_left
    (fun acc (pid, t1) ->
      match List.assoc_opt pid before with Some t0 -> acc +. (t1 -. t0) | None -> acc)
    0.0 after

let peak_rss pids = List.fold_left (fun a pid -> a +. Procs.vmhwm_mb pid) 0.0 pids

(* ----- phases ------------------------------------------------------------- *)

type window = {
  res : Loadgen.result;
  steal : int * int;  (** host jiffies stolen by the hypervisor, and all jiffies *)
  warm_rss : float * float;  (** fleet and worker peak RSS (MB) after the warm-up *)
  delta : Delta.snap;
  router_cpu : float;  (** seconds over the phase *)
  worker_cpu : float;
  driver_cpu : float;
}

(* Drive [depth] requests in flight per connection for [duration] over
   fresh connections, with metrics snapshots and per-process CPU around
   it.  A worker that restarts during the phase fails the run. *)
let timed_phase b (p : Fleetctl.proc) streams depth ~warmup duration =
  Procs.sync_disks ();
  let conns = Array.map (fun _ -> Fleetctl.connect p) streams in
  let drive ?limit duration =
    Loadgen.run ?limit ~conns:(Array.map C.fd conns) ~streams ~depth ~duration
      ~on_ack:(on_ack b) ()
  in
  (* the same load, unmeasured, until caches and the store's resident
     set reach the steady state the measured window then sees: a fixed
     number of requests, or a fixed time when re-warming *)
  (match warmup with
  | `Requests n -> account b (drive ~limit:n warmup_cap)
  | `Seconds s -> account b (drive s));
  let warm_rss = (peak_rss (fleet_pids p), peak_rss p.workers) in
  (* snapshots ride the first load connection, outside the load loop *)
  let m0 = Fleetctl.metrics conns.(0) in
  let workers0 = Procs.children p.pid in
  let r0 = cpu_of [ p.pid ] and w0 = cpu_of p.workers and d0 = Procs.self_cpu_s () in
  let s0, j0 = Procs.host_steal () in
  let res = drive duration in
  let s1, j1 = Procs.host_steal () in
  let d1 = Procs.self_cpu_s () in
  let r1 = cpu_of [ p.pid ] and w1 = cpu_of p.workers in
  let m1 = Fleetctl.metrics conns.(0) in
  if Procs.children p.pid <> workers0 then begin
    fail b "a worker restarted during a measured phase"
  end;
  Array.iter C.close conns;
  account b res;
  {
    res;
    steal = (s1 - s0, j1 - j0);
    warm_rss;
    delta = Delta.diff ~prev:m0 ~cur:m1;
    router_cpu = cpu_delta r0 r1;
    worker_cpu = cpu_delta w0 w1;
    driver_cpu = d1 -. d0;
  }

(* [n] requests per connection, one step (three requests) in flight at
   a time — the fixed-volume warm walk. *)
let step_phase b (p : Fleetctl.proc) streams n =
  ignore
    (per_conn (Array.length streams) (fun c ->
         let cl = Fleetctl.connect p in
         let reqs = List.init n (fun _ -> streams.(c) ()) in
         List.iter
           (fun ((r : R.req), reply) ->
             match reply with
             | Ok line when Loadgen.reply_ok r line -> on_ack b r
             | Ok line ->
               fail b "failed: %s -> %s" r.line line
             | Error e ->
               fail b "failed: %s -> %s" r.line e)
           (Fleetctl.pipelined ~depth:3 cl reqs);
         C.close cl));
  attempt b (n * Array.length streams)

(* ----- the run ------------------------------------------------------------ *)

type outcome = {
  book : book;
  setup_s : float list;
  lat : window list;  (** the rounds latency metrics come from *)
  rate : window list;  (** the rounds throughput and CPU come from *)
  windows : window list;  (** every measured round *)
  recovery_s : float;
  resume_delta : Delta.snap;  (** the recovered fleet's counters right after resume *)
  disk_bytes : int;
  journal_bytes : int;
  mutations_at_kill : int;
  peak_rss_mb : float;
  worker_rss_mb : float;
}

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2) else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let run ~dse ~root ~seed ~seconds (plan : plan) =
  let shape = plan.wl.R.shape in
  let b = new_book (Array.length shape.R.sessions) in
  let fleet dir = Fleetctl.fleet_args ~dir ~workers ~capacity in
  (* set-up, repeated: exec of the router until every session is open *)
  let setups = ref [] in
  let rec setup k =
    let dir = Filename.concat root (Printf.sprintf "setup%d" k) in
    Procs.rm_rf dir;
    let t0 = Unix.gettimeofday () in
    let p = Fleetctl.boot ~dse ~dir ~args:(fleet dir) in
    ignore (bulk b p shape R.open_req);
    setups := (Unix.gettimeofday () -. t0) :: !setups;
    if k < reps then begin
      Fleetctl.stop p;
      Procs.rm_rf dir;
      setup (k + 1)
    end
    else (p, dir)
  in
  let p, dir = setup 1 in
  let streams = Array.init R.conns (fun c -> plan.wl.R.stream ~seed ~c) in
  step_phase b p streams plan.steps;
  let before_kill = signatures b p shape in
  let keep_state n = Filename.check_suffix n ".journal" || Filename.check_suffix n ".snapshot" in
  let disk_bytes = Procs.dir_bytes ~keep:keep_state dir in
  let journal_bytes = Procs.dir_bytes ~keep:(fun n -> Filename.check_suffix n ".journal") dir in
  let mutations_at_kill = mutation_count b in
  Fleetctl.kill p;
  (* recovery, repeated: exec on the same state dir until every session
     is back with the signature it had before the kill; every rep but
     the last ends in another SIGKILL *)
  let recover () =
    let t0 = Unix.gettimeofday () in
    let p = Fleetctl.boot ~dse ~dir ~args:(fleet dir) in
    let resumed = bulk b p shape R.resume_req in
    let dt = Unix.gettimeofday () -. t0 in
    Array.iteri
      (fun i r ->
        match (Option.bind r signature_of, before_kill.(i)) with
        | Some a, Some b' when String.equal a b' -> ()
        | Some a, Some b' ->
          fail b "session %s resumed with signature %s, had %s before the kill" shape.sessions.(i)
            a b'
        | _ -> ())
      resumed;
    (p, dt)
  in
  let p, first = recover () in
  let resume_delta =
    let c = Fleetctl.connect p in
    let m = Fleetctl.metrics c in
    C.close c;
    m
  in
  let rec again p k acc =
    if k >= reps then (p, acc)
    else begin
      Fleetctl.kill p;
      let p, dt = recover () in
      again p (k + 1) (dt :: acc)
    end
  in
  let p, recoveries = again p 1 [ first ] in
  (* round [k] of every phase, in order, then round [k+1] *)
  let post =
    List.init rounds (fun k ->
        List.map
          (fun (depth, share) ->
            let warmup = if k = 0 then `Requests plan.warmup else `Seconds rewarm in
            timed_phase b p streams depth ~warmup (seconds *. share /. float_of_int rounds))
          plan.phases)
  in
  let final = signatures b p shape in
  Fleetctl.stop p;
  verify b shape final;
  let pick i = List.map (fun round -> List.nth round i) post in
  {
    book = b;
    setup_s = List.rev !setups;
    lat = pick plan.latency_from;
    rate = pick plan.rate_from;
    windows = List.concat post;
    recovery_s = List.fold_left Float.min infinity recoveries;
    resume_delta;
    disk_bytes;
    journal_bytes;
    mutations_at_kill;
    peak_rss_mb = fst (List.hd (List.hd post)).warm_rss;
    worker_rss_mb = snd (List.hd (List.hd post)).warm_rss;
  }

(* ----- end-to-end metrics -------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let min_p99_samples = 1000

(* Latency percentiles pool the samples of every round. *)
let latency o f q =
  Loadgen.percentile
    (Array.concat (List.map (fun w -> Loadgen.Vec.to_array (f w.res.stats)) o.lat))
    q

let rlat st = st.Loadgen.rlat
let wlat st = st.Loadgen.wlat

(* The p99s, each with its sample count.  They go to the run's report,
   not into the gated metrics: on the 2-vCPU VM the benchmark was tuned
   on they moved with the host's speed from run to run, beyond the
   largest bound a gate may have (see README.md).  A p99 with fewer than
   1000 samples fails the run. *)
let tails o =
  List.map
    (fun (name, f) ->
      let n = List.fold_left (fun a w -> a + Loadgen.Vec.length (f w.res.stats)) 0 o.lat in
      if n < min_p99_samples then fail o.book "%s has %d samples (< %d)" name n min_p99_samples;
      (name, latency o f 0.99, n))
    [ ("read_p99_us", rlat); ("write_p99_us", wlat) ]

(* CPU per request pools every round; throughput is the median over
   every round's half-second slices. *)
let end_to_end o =
  let sum f = List.fold_left (fun a w -> a +. f w) 0.0 o.rate in
  let cpu =
    sum (fun w -> w.router_cpu +. w.worker_cpu) *. 1e6 /. sum (fun w -> float_of_int w.res.stats.ok)
  in
  let m name value unit_ = { name; value; unit_ } in
  [
    m "setup_s" (median o.setup_s) "s";
    m "throughput_rps"
      (Loadgen.percentile (Array.concat (List.map (fun w -> Loadgen.bin_rates w.res) o.rate)) 0.5)
      "1/s";
    m "read_p50_us" (latency o rlat 0.5) "us";
    m "write_p50_us" (latency o wlat 0.5) "us";
    m "cpu_us_per_req" cpu "us";
    m "peak_rss_mb" o.peak_rss_mb "MB";
    m "recovery_s" o.recovery_s "s";
    m "disk_bytes_per_mutation"
      (float_of_int o.disk_bytes /. float_of_int (max 1 o.mutations_at_kill))
      "B";
  ]

(* Share of the host's CPU time the hypervisor stole during the measured
   rounds: a high figure says the run measured a busy host. *)
let steal_share o =
  let s, j = List.fold_left (fun (s, j) w -> (s + fst w.steal, j + snd w.steal)) (0, 0) o.windows in
  float_of_int s /. float_of_int (max 1 j)
