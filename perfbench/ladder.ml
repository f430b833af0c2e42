(* The traced run: the workload's seeded request stream replayed up the
   layer ladder, plus the per-layer metrics read from the measured run's
   counter windows.

     L0  direct Ds_layer.Session calls
     L1  Protocol.parse_request -> Service.handle -> Protocol.print_response
         in process, with the workload's journal settings
     L2  dse serve
     L3  dse fleet serve -n 1
     L4  the workload's own fleet (-n 2), untraced and traced

   Every rung runs one connection in lockstep (one request in flight),
   for the same time slice, over the same stream prefix; its benchmark
   spans give per-request latency, and differences of rung medians
   attribute time to the layer each rung adds. *)

module P = Ds_serve.Protocol
module C = Ds_serve.Client
module Service = Ds_serve.Service
module Session = Ds_layer.Session
module Obs = Ds_obs.Obs
module R = Reqgen
module W = Workload

(* The single-connection ladder stream: both connections' streams
   interleaved, which keeps every session's own order. *)
let ladder_stream (plan : W.plan) ~seed =
  let s = Array.init R.conns (fun c -> plan.wl.R.stream ~seed ~c) in
  let k = ref 0 in
  fun () ->
    let r = s.(!k mod Array.length s) () in
    incr k;
    r

(* Every rung runs for the same slice of time, capped at [rung_cap]
   requests so the in-process rungs stay within the span buffer. *)
let slice seconds = Float.max 0.5 (seconds /. 12.0)
let rung_cap = 20_000

(* Self times of the spans called [name], in µs. *)
let self_us spans name =
  List.filter_map
    (fun ((s : Spans.span), self) -> if s.name = name then Some (self *. 1e6) else None)
    spans
  |> Array.of_list

let med a = Loadgen.percentile a 0.5

(* ----- L0: the engine alone ------------------------------------------ *)

let op_label = function
  | P.Set _ -> "set"
  | P.Retract _ -> "retract"
  | P.Annotate _ -> "annotate"
  | P.Default _ -> "default"
  | P.Candidates _ -> "candidates"
  | P.Ranges _ -> "ranges"
  | P.Signature _ -> "signature"
  | P.Batch _ -> "batch"
  | _ -> "other"

let rec l0_apply s (r : P.request) =
  match r with
  | P.Set _ | P.Retract _ | P.Annotate _ | P.Default _ -> W.apply s r
  | P.Candidates { max; _ } ->
    let c = Session.candidates s in
    ignore (Session.candidate_count s, List.filteri (fun i _ -> i < Option.value max ~default:max_int) c);
    Ok s
  | P.Ranges { merits; _ } ->
    List.iter (fun merit -> ignore (Session.merit_range s ~merit)) (Option.value merits ~default:[]);
    Ok s
  | P.Signature _ ->
    ignore (Session.candidate_signature s);
    Ok s
  | P.Batch { reqs; _ } -> List.fold_left (fun acc q -> Result.bind acc (fun s -> l0_apply s q)) (Ok s) reqs
  | _ -> Ok s

let rung_l0 ~(book : W.book) (plan : W.plan) ~seed ~seconds =
  let shape = plan.wl.R.shape in
  let base = W.base shape.R.layer in
  let sessions = Array.map (fun _ -> Session.pristine base) shape.R.sessions in
  let next = ladder_stream plan ~seed in
  let stop = Unix.gettimeofday () +. slice seconds in
  let rid = ref 0 in
  while Unix.gettimeofday () < stop && !rid < rung_cap do
    let r = next () in
    incr rid;
    W.attempt book 1;
    Spans.with_span ~rid:!rid ("L0." ^ op_label r.preq) (fun _ ->
        match l0_apply sessions.(r.sess) r.preq with
        | Ok s -> sessions.(r.sess) <- s
        | Error e ->
          W.fail book "L0: %s -> %s" r.line e)
  done

(* ----- L1: codec + service in process --------------------------------- *)

let l1_service ~(book : W.book) (plan : W.plan) dir =
  Procs.rm_rf dir;
  Procs.mkdir_p dir;
  let cfg =
    Service.config ~journal_dir:dir ~capacity:(W.capacity * W.workers)
      ~layers:Ds_domains.Catalog.factories ()
  in
  let svc = Service.create cfg in
  Array.iteri
    (fun i _ ->
      W.attempt book 1;
      match Service.handle svc (R.open_req plan.wl.R.shape i).preq with
      | P.Reply _ -> ()
      | P.Failed (_, m) ->
        W.fail book "L1 open: %s" m)
    plan.wl.R.shape.R.sessions;
  svc

(* Four half-slices over one service, telemetry on / off / off / on (the
   ABBA order cancels cache warm-up drift).  Returns the requests, reply
   bytes and program spans of the telemetry-on halves. *)
let rung_l1 ~(book : W.book) (plan : W.plan) ~seed ~seconds ~dir =
  let svc = l1_service ~book plan dir in
  let next = ladder_stream plan ~seed in
  let was = Obs.enabled () in
  let rid = ref 0 and n_on = ref 0 and bytes = ref 0 and prog = ref 0 in
  let pass telemetry =
    Obs.set_enabled telemetry;
    let name part = (if telemetry then "L1." else "L1.off.") ^ part in
    let stop = Unix.gettimeofday () +. (slice seconds /. 2.0) in
    let c0 = Obs.trace_cursor () and n = ref 0 in
    while Unix.gettimeofday () < stop && !n < rung_cap / 2 do
      let r = next () in
      incr n;
      incr rid;
      let rid = !rid in
      Spans.with_span ~rid (name "request") (fun parent ->
          let req = Spans.with_span ~parent ~rid (name "decode") (fun _ -> P.parse_request r.line) in
          let resp =
            match req with
            | Ok q -> Spans.with_span ~parent ~rid (name "handle") (fun _ -> Service.handle svc q)
            | Error (code, m) -> P.Failed (code, m)
          in
          W.attempt book 1;
          (match resp with P.Failed (_, m) -> W.fail book "L1: %s -> %s" r.line m | P.Reply _ -> ());
          let line = Spans.with_span ~parent ~rid (name "encode") (fun _ -> P.print_response resp) in
          if telemetry then bytes := !bytes + String.length line + 1)
    done;
    if telemetry then begin
      n_on := !n_on + !n;
      prog := !prog + (Obs.trace_cursor () - c0)
    end
  in
  List.iter pass [ true; false; false; true ];
  Obs.set_enabled was;
  (* close every session: it releases the journal descriptors, keeping
     this process's later sockets below select's descriptor limit *)
  Array.iter
    (fun session -> ignore (Service.handle svc (P.Close { session })))
    plan.wl.R.shape.R.sessions;
  (!n_on, !bytes, !prog)

(* ----- L2..L4: over the socket ----------------------------------------- *)

(* One client opens every session, then carries the rung's traffic.
   Rung failures count toward the run's [failed] like any other. *)
let open_all book p (plan : W.plan) =
  let shape = plan.wl.R.shape in
  let c = Fleetctl.connect p in
  W.bulk_on book c
    (List.init (Array.length shape.R.sessions) (R.open_req shape))
    (Array.make (Array.length shape.R.sessions) None);
  c

let rung_socket ~book ~name ~dse ~dir ~args (plan : W.plan) ~seed ~seconds =
  Procs.rm_rf dir;
  let p = Fleetctl.boot ~dse ~dir ~args in
  let c = open_all book p plan in
  let res =
    Loadgen.run ~span:name ~conns:[| C.fd c |] ~streams:[| ladder_stream plan ~seed |]
      ~depth:1 ~duration:(slice seconds) ~on_ack:(fun _ -> ()) ()
  in
  C.close c;
  Fleetctl.stop p;
  Procs.rm_rf dir;
  W.account book res

(* ----- per-layer metrics -------------------------------------------- *)

let read_ops = [ "candidates"; "ranges"; "issues"; "preview"; "script"; "trace"; "health"; "signature"; "report" ]
let write_ops = [ "set"; "decide"; "default"; "retract"; "annotate"; "batch" ]

let run ~dse ~root ~spans_file ~seed ~seconds (plan : W.plan) (o : W.outcome) =
  let insufficient = ref [] in
  let t0 = Unix.gettimeofday () in
  let stage name = Printf.eprintf "perfbench: %s done at +%.1f s\n%!" name (Unix.gettimeofday () -. t0) in
  (* ladder rungs, spans on *)
  Spans.reset ();
  Spans.on := true;
  rung_l0 ~book:o.book plan ~seed ~seconds;
  stage "L0";
  let l1dir = Filename.concat root "l1" in
  let n_on, bytes_on, prog_spans = rung_l1 ~book:o.book plan ~seed ~seconds ~dir:l1dir in
  Procs.rm_rf l1dir;
  stage "L1";
  let cap_scaled = W.capacity * W.workers in
  rung_socket ~book:o.book ~name:"L2.request" ~dse ~dir:(Filename.concat root "l2")
    ~args:(Fleetctl.serve_args ~dir:(Filename.concat root "l2") ~capacity:cap_scaled)
    plan ~seed ~seconds;
  stage "L2";
  rung_socket ~book:o.book ~name:"L3.request" ~dse ~dir:(Filename.concat root "l3")
    ~args:
      (Fleetctl.fleet_args ~dir:(Filename.concat root "l3") ~workers:1 ~capacity:cap_scaled)
    plan ~seed ~seconds;
  stage "L3";
  let l4_args d = Fleetctl.fleet_args ~dir:d ~workers:W.workers ~capacity:W.capacity in
  Spans.on := false;
  (* L4 runs four half-slices over one continuing stream, untraced /
     traced / traced / untraced, after an unmeasured one that takes the
     fresh fleet past its cold start: the ABBA order cancels the drift of
     warming caches, and the time per request of the traced passes
     against the untraced ones is the benchmark's own tracing overhead *)
  let d4 = Filename.concat root "l4" in
  Procs.rm_rf d4;
  let p = Fleetctl.boot ~dse ~dir:d4 ~args:(l4_args d4) in
  let c = open_all o.book p plan in
  let l4_stream = ladder_stream plan ~seed in
  let pass traced =
    Spans.on := traced;
    let res =
      Loadgen.run
        ?span:(if traced then Some "L4.request" else None)
        ~conns:[| C.fd c |] ~streams:[| l4_stream |] ~depth:1
        ~duration:(slice seconds /. 2.0) ~on_ack:(fun _ -> ()) ()
    in
    Spans.on := false;
    W.account o.book res;
    res
  in
  ignore (pass false);
  let passes = List.map pass [ false; true; true; false ] in
  C.close c;
  Fleetctl.stop p;
  Procs.rm_rf d4;
  stage "L4";
  let per_req (r : Loadgen.result) = r.duration /. float_of_int (max 1 r.stats.ok) in
  let cost traced =
    List.fold_left2
      (fun acc t r -> if t = traced then acc +. per_req r else acc)
      0.0 [ false; true; true; false ] passes
  in
  let untraced_lat =
    List.concat_map
      (fun (r : Loadgen.result) -> [ Loadgen.Vec.to_array r.stats.rlat; Loadgen.Vec.to_array r.stats.wlat ])
      [ List.hd passes; List.nth passes 3 ]
    |> Array.concat
  in
  let spans = Spans.self_times (Spans.all ()) in
  Spans.write_out spans_file;
  if !Spans.dropped > 0 then
    Printf.eprintf "perfbench: span buffer full, %d spans dropped\n" !Spans.dropped;
  let rung name = med (self_us spans name) in
  let rung_total name =
    List.filter_map
      (fun ((s : Spans.span), _) -> if s.name = name then Some ((s.t1 -. s.t0) *. 1e6) else None)
      spans
    |> Array.of_list |> med
  in
  let l1 = rung_total "L1.request" and l1_off = rung_total "L1.off.request" in
  let l2 = rung "L2.request" and l3 = rung "L3.request" in
  (* counter windows of the measured run *)
  let win = List.fold_left (fun acc (w : W.window) -> Delta.add acc w.delta) Delta.empty o.windows in
  let reqs = List.fold_left (fun a (w : W.window) -> a + w.res.stats.ok) 0 o.windows in
  let per_req x = x /. float_of_int (max 1 reqs) in
  let ctr k = float_of_int (Delta.counter win k) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let cpu f = per_req (List.fold_left (fun a (w : W.window) -> a +. f w) 0.0 o.windows) *. 1e6 in
  let q ?(p99 = false) name h quant =
    if p99 && h.Delta.count > 0 && h.Delta.count < W.min_p99_samples then begin
      insufficient := (name, h.Delta.count) :: !insufficient;
      0.0
    end
    else Delta.quantile h quant
  in
  let hist k = Delta.hist win k in
  let by_ops ops =
    Delta.merged win (fun k -> match Delta.request_op k with Some op -> List.mem op ops | None -> false)
  in
  let shard_reqs =
    List.map
      (fun (_, s) ->
        float_of_int
          (Delta.merged s (fun k ->
               match Delta.request_op k with
               | Some op -> List.mem op read_ops || List.mem op write_ops
               | None -> false))
            .count)
      win.shards
  in
  let imbalance =
    match shard_reqs with
    | [] -> 0.0
    | l ->
      let mean = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      ratio (List.fold_left Float.max 0.0 l) mean
  in
  let resume_h = Delta.hist o.resume_delta "service/dse_resume_us" in
  let m name value unit_ = { W.name; value; unit_ } in
  let sweep = hist "engine/dse_engine_sweep_us" in
  let metrics =
    [
      m "driver.cpu_us_per_req" (cpu (fun w -> w.driver_cpu)) "us";
      m "driver.trace_overhead_pct" (100.0 *. ratio (cost true -. cost false) (cost false)) "%";
      m "ladder.l1_us" l1 "us";
      m "ladder.l2_us" l2 "us";
      m "ladder.l3_us" l3 "us";
      m "ladder.l4_us" (med untraced_lat) "us";
      m "router.cpu_us_per_req" (cpu (fun w -> w.router_cpu)) "us";
      m "router.hop_us" (l3 -. l2) "us";
      m "router.passthrough_ratio"
        (ratio (ctr "router/dse_router_passthrough_total") (ctr "router/dse_router_requests_total"))
        "ratio";
      m "router.upstream_wait_us_p99"
        (q ~p99:true "router.upstream_wait_us_p99" (hist "router/dse_router_upstream_wait_us") 0.99)
        "us";
      m "router.shard_imbalance" imbalance "ratio";
      m "server.transport_us" (l2 -. l1) "us";
      m "worker.cpu_us_per_req" (cpu (fun w -> w.worker_cpu)) "us";
      m "worker.peak_rss_mb" o.worker_rss_mb "MB";
      m "service.read_us_p50" (q "" (by_ops read_ops) 0.5) "us";
      m "service.write_us_p50" (q "" (by_ops write_ops) 0.5) "us";
      m "codec.decode_us" (med (self_us spans "L1.decode")) "us";
      m "codec.encode_us" (med (self_us spans "L1.encode")) "us";
      m "codec.reply_bytes_per_req" (ratio (float_of_int bytes_on) (float_of_int n_on)) "B";
      m "engine.sweep_us_p50" (q "" sweep 0.5) "us";
      m "engine.sweep_us_p99" (q ~p99:true "engine.sweep_us_p99" sweep 0.99) "us";
      m "engine.sweeps_per_req" (per_req (ctr "engine/dse_engine_sweeps_total")) "ratio";
      m "engine.survivor_hit_ratio"
        (let h = ctr "engine/dse_engine_survivor_cache_hits_total" in
         ratio h (h +. ctr "engine/dse_engine_survivor_cache_misses_total"))
        "ratio";
      m "engine.verdict_hit_ratio"
        (let h = ctr "engine/dse_engine_verdict_cache_hits_total" in
         ratio h (h +. ctr "engine/dse_engine_verdict_cache_misses_total"))
        "ratio";
      m "engine.eliminated_per_sweep"
        (ratio (ctr "engine/dse_engine_eliminated_total") (ctr "engine/dse_engine_sweeps_total"))
        "count";
      m "engine.set_us" (med (self_us spans "L0.set")) "us";
      m "engine.candidates_us" (med (self_us spans "L0.candidates")) "us";
      m "engine.ranges_us" (med (self_us spans "L0.ranges")) "us";
      m "journal.bytes_per_mutation"
        (ratio (float_of_int o.journal_bytes) (float_of_int o.mutations_at_kill))
        "B";
      m "journal.resume_us_p50" (Delta.quantile resume_h 0.5) "us";
      m "obs.spans_per_req" (ratio (float_of_int prog_spans) (float_of_int n_on)) "count";
      m "obs.overhead_us_per_req" (l1 -. l1_off) "us";
    ]
  in
  List.iter
    (fun (name, n) ->
      Printf.eprintf "perfbench: %s not reported: %d samples (< %d)\n" name n W.min_p99_samples)
    !insufficient;
  metrics
