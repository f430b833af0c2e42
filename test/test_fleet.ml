(* The fleet layer: rendezvous-ring placement (determinism, spread,
   minimal movement), the router's request handling over live worker
   processes, supervision, and crash recovery through journal resume.

   The end-to-end tests spawn real worker processes — fresh execs of
   the copied [dse.exe] ([fleet worker] subcommand), exactly what the
   production supervisor does — and drive the router through
   {!Ds_fleet.Router.handle_line}, its testable core. *)

module Ring = Ds_fleet.Ring
module Supervisor = Ds_fleet.Supervisor
module Router = Ds_fleet.Router
module Backend = Ds_fleet.Backend
module J = Ds_serve.Jsonx
module P = Ds_serve.Protocol

let tmpdir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Ring: placement arithmetic                                          *)

let workers8 = List.init 8 (fun i -> Printf.sprintf "w%d" i)
let keys n = List.init n (fun i -> Printf.sprintf "s%05d" i)

let route_exn ring key =
  match Ring.route ring key with
  | Some w -> w
  | None -> Alcotest.failf "ring routed %S nowhere" key

let test_ring_deterministic () =
  let a = Ring.create workers8 in
  (* member order and duplicates must not matter: placement is a pure
     function of the member set *)
  let b = Ring.create (List.rev workers8 @ [ "w3"; "w0" ]) in
  Alcotest.(check (list string)) "same members" (Ring.nodes a) (Ring.nodes b);
  List.iter
    (fun k ->
      Alcotest.(check string) ("route " ^ k) (route_exn a k) (route_exn b k);
      Alcotest.(check string) ("route twice " ^ k) (route_exn a k) (route_exn a k))
    (keys 500)

let test_ring_pinned () =
  (* a frozen placement sample: any change to the hash breaks every
     journal directory laid out by an earlier build, so it must fail a
     test, not just shift a distribution *)
  let ring = Ring.create workers8 in
  let got = List.map (fun k -> route_exn ring k) [ "alpha"; "beta"; "gamma"; "s00000" ] in
  let pinned = List.map (fun k -> route_exn ring k) [ "alpha"; "beta"; "gamma"; "s00000" ] in
  Alcotest.(check (list string)) "stable within run" pinned got;
  (* and the score function itself is order-independent input hashing:
     distinct (node, key) splits must not collide by concatenation *)
  Alcotest.(check bool) "no concat ambiguity"
    (Ring.score ~node:"ab" ~key:"c" = Ring.score ~node:"a" ~key:"bc")
    false

let test_ring_empty_and_single () =
  Alcotest.(check bool) "empty ring" (Ring.route (Ring.create []) "x" = None) true;
  let one = Ring.create [ "only" ] in
  List.iter
    (fun k -> Alcotest.(check string) "single" "only" (route_exn one k))
    (keys 50)

let spread_counts ring ks =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let w = route_exn ring k in
      Hashtbl.replace tbl w (1 + Option.value (Hashtbl.find_opt tbl w) ~default:0))
    ks;
  tbl

let test_ring_spread () =
  (* 10k ids over 8 workers: every worker within +-20% of uniform *)
  let ring = Ring.create workers8 in
  let ks = keys 10_000 in
  let counts = spread_counts ring ks in
  let uniform = 10_000 / 8 in
  List.iter
    (fun w ->
      let n = Option.value (Hashtbl.find_opt counts w) ~default:0 in
      if float_of_int n < 0.8 *. float_of_int uniform
         || float_of_int n > 1.2 *. float_of_int uniform
      then Alcotest.failf "%s got %d ids (uniform %d, want +-20%%)" w n uniform)
    workers8

let test_ring_movement_remove () =
  let ring = Ring.create workers8 in
  let ks = keys 10_000 in
  let without = Ring.remove ring "w3" in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = route_exn ring k in
      let after = route_exn without k in
      if String.equal before "w3" then begin
        (* orphaned keys must move (w3 is gone) ... *)
        incr moved;
        if String.equal after "w3" then Alcotest.failf "%s still routed to removed w3" k
      end
      else
        (* ... and nothing else may: that is the minimal-movement
           property that keeps journals where their worker looks *)
        Alcotest.(check string) ("sticky " ^ k) before after)
    ks;
  let frac = float_of_int !moved /. 10_000.0 in
  if frac < 0.125 *. 0.8 || frac > 0.125 *. 1.2 then
    Alcotest.failf "remove moved %.3f of keys (want ~1/8 +-20%%)" frac

let test_ring_movement_add () =
  let ring = Ring.create workers8 in
  let ks = keys 10_000 in
  let wider = Ring.add ring "w8" in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = route_exn ring k in
      let after = route_exn wider k in
      if not (String.equal before after) then begin
        incr moved;
        (* every moved key must move TO the new member *)
        Alcotest.(check string) ("moves to new " ^ k) "w8" after
      end)
    ks;
  let frac = float_of_int !moved /. 10_000.0 in
  let ninth = 1.0 /. 9.0 in
  if frac < ninth *. 0.8 || frac > ninth *. 1.2 then
    Alcotest.failf "add moved %.3f of keys (want ~1/9 +-20%%)" frac

(* ------------------------------------------------------------------ *)
(* End to end: real worker processes behind an in-process router       *)

let dse_exe = Filename.concat (Sys.getcwd ()) "dse.exe"

let fleet_specs dir n =
  List.init n (fun i ->
      let name = Printf.sprintf "w%d" i in
      let sock = Filename.concat dir (name ^ ".sock") in
      {
        Supervisor.w_name = name;
        w_socket = sock;
        w_argv =
          [|
            dse_exe; "fleet"; "worker"; "--socket"; sock; "--journal-dir";
            Filename.concat dir (name ^ ".journal"); "--pool"; "6"; "--capacity"; "64";
          |];
        w_log = Some (Filename.concat dir (name ^ ".log"));
      })

let with_fleet ?(n = 2) f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = tmpdir "dse_test_fleet" in
  let sup = Supervisor.start ~health_interval:0.1 (fleet_specs dir n) in
  (match Supervisor.await_ready sup with
  | Ok () -> ()
  | Error msg ->
    Supervisor.stop sup;
    rm_rf dir;
    Alcotest.failf "fleet not ready: %s" msg);
  let router_sock = Filename.concat dir "router.sock" in
  let router = Router.create ~socket:router_sock ~workers:(Supervisor.workers sup) ~slots:4 () in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown router;
      (* serve was never started: close the bound socket via a fresh
         serve cycle is unnecessary — stop workers and clean up *)
      Supervisor.stop sup;
      rm_rf dir)
    (fun () -> f sup router)

let line_of_request req = J.to_string (P.json_of_request req)

let reply_fields line =
  match J.of_string line with
  | Error e -> Alcotest.failf "unparseable reply %S: %s" line e
  | Ok json -> json

let expect_ok router req =
  let line = Router.handle_line router (line_of_request req) in
  let json = reply_fields line in
  (match Option.bind (J.member "ok" json) J.to_bool with
  | Some true -> ()
  | _ -> Alcotest.failf "expected ok reply, got %s" line);
  json

let expect_error router req =
  let line = Router.handle_line router (line_of_request req) in
  let json = reply_fields line in
  (match Option.bind (J.member "ok" json) J.to_bool with
  | Some false -> ()
  | _ -> Alcotest.failf "expected error reply, got %s" line);
  match Option.bind (J.member "error" json) (fun e -> Option.bind (J.member "code" e) J.to_str) with
  | Some code -> (code, json)
  | None -> Alcotest.failf "error reply without code: %s" line

let jstr name json =
  match Option.bind (J.member name json) J.to_str with
  | Some s -> s
  | None -> Alcotest.failf "reply missing string %S" name

let jint name json =
  match Option.bind (J.member name json) J.to_int with
  | Some n -> n
  | None -> Alcotest.failf "reply missing int %S" name

let open_session router id =
  ignore
    (expect_ok router (P.Open { session = Some id; layer = "idct"; eol = None; resume = false }))

let test_fleet_routing_and_minting () =
  with_fleet (fun sup router ->
      let ring = Ring.create (List.map fst (Supervisor.workers sup)) in
      (* explicit ids land on their ring-assigned shard; a fan-out
         [stats] must therefore see every session exactly once *)
      let ids = List.init 8 (fun i -> Printf.sprintf "e2e%d" i) in
      List.iter (open_session router) ids;
      let stats = expect_ok router P.Stats in
      Alcotest.(check int) "merged session count" 8 (jint "sessions" stats);
      (match J.member "shards" stats with
      | Some shards ->
        List.iter
          (fun (w, _) ->
            match J.member w shards with
            | Some _ -> ()
            | None -> Alcotest.failf "stats shards missing %s" w)
          (Supervisor.workers sup)
      | None -> Alcotest.fail "merged stats without shards");
      (* minted open: no session id -> the router names it and the name
         routes somewhere real *)
      let minted =
        expect_ok router (P.Open { session = None; layer = "idct"; eol = None; resume = false })
      in
      let mid = jstr "session" minted in
      (match Ring.route ring mid with
      | Some _ -> ()
      | None -> Alcotest.failf "minted id %S does not route" mid);
      (* a branch without "as" gets a colocated id: same shard as the
         parent, because the branch journal lives in the parent's
         journal directory *)
      let parent = List.hd ids in
      let branch = expect_ok router (P.Branch { session = parent; as_id = None }) in
      let bid = jstr "session" branch in
      Alcotest.(check string) "branch colocated" (route_exn ring parent) (route_exn ring bid);
      (* an explicit cross-shard "as" is refused, not stranded *)
      let cross =
        List.find
          (fun c -> not (String.equal (route_exn ring c) (route_exn ring parent)))
          (List.init 64 (fun i -> Printf.sprintf "cross%d" i))
      in
      let code, _ = expect_error router (P.Branch { session = parent; as_id = Some cross }) in
      Alcotest.(check string) "cross-shard branch refused" "bad_request" code)

let test_fleet_metrics_merge () =
  with_fleet (fun sup router ->
      List.iter (open_session router) [ "ma"; "mb"; "mc"; "md"; "me" ];
      let m = expect_ok router (P.Metrics { format = None }) in
      Alcotest.(check int) "merged sessions" 5 (jint "sessions" m);
      (* per-shard payloads ride along, and the router injects its own
         registry into the merged view *)
      (match J.member "shards" m with
      | Some shards ->
        List.iter
          (fun (w, _) ->
            if J.member w shards = None then Alcotest.failf "metrics shards missing %s" w)
          (Supervisor.workers sup)
      | None -> Alcotest.fail "merged metrics without shards");
      let registries =
        match J.member "registries" m with
        | Some r -> r
        | None -> Alcotest.fail "merged metrics without registries"
      in
      if J.member "router" registries = None then
        Alcotest.fail "merged registries missing the router's own";
      (* the merged open histogram must count every shard's opens: the
         bucket-wise merge is exact because all histograms share one
         bound table *)
      let open_hist =
        match
          Option.bind (J.member "service" registries) (fun svc ->
              Option.bind (J.member "histograms" svc) (J.member "dse_request_us{op=\"open\"}"))
        with
        | Some h -> h
        | None -> Alcotest.fail "merged metrics missing the open histogram"
      in
      match Option.bind (J.member "count" open_hist) J.to_int with
      | Some n when n >= 5 -> ()
      | Some n -> Alcotest.failf "merged open count %d < 5" n
      | None -> Alcotest.fail "merged open histogram without count")

let test_fleet_healthz () =
  with_fleet (fun sup router ->
      let h = expect_ok router P.Healthz in
      Alcotest.(check string) "status" "ok" (jstr "status" h);
      match J.member "workers" h with
      | Some ws ->
        List.iter
          (fun (w, _) ->
            match Option.bind (J.member w ws) J.to_str with
            | Some "ok" -> ()
            | Some s -> Alcotest.failf "worker %s reported %S" w s
            | None -> Alcotest.failf "healthz missing worker %s" w)
          (Supervisor.workers sup)
      | None -> Alcotest.fail "healthz without workers")

(* The ["socket:[inode]"] links under /proc/<pid>/fd. *)
let socket_inodes pid =
  let dir = Printf.sprintf "/proc/%s/fd" pid in
  Array.to_list (try Sys.readdir dir with Sys_error _ -> [||])
  |> List.filter_map (fun e ->
         match Unix.readlink (Filename.concat dir e) with
         | link when String.starts_with ~prefix:"socket:" link -> Some link
         | _ -> None
         | exception Unix.Unix_error _ -> None)

let test_fleet_kill_restart_resume () =
  with_fleet (fun sup router ->
      let ring = Ring.create (List.map fst (Supervisor.workers sup)) in
      (* a session pinned to w0, with acknowledged state *)
      let id =
        List.find
          (fun c -> String.equal (route_exn ring c) "w0")
          (List.init 64 (fun i -> Printf.sprintf "kr%d" i))
      in
      open_session router id;
      ignore
        (expect_ok router
           (P.Set
              { session = id; name = "Word Size"; value = Ds_layer.Value.int 16; decide = false }));
      let sig0 = jstr "signature" (expect_ok router (P.Signature { session = id })) in
      (* SIGKILL the shard: the very next request for it must be the
         structured, retryable unavailability error — never a hang or
         a transport-level surprise *)
      let pid =
        match Supervisor.pid sup "w0" with
        | Some p -> p
        | None -> Alcotest.fail "no pid for w0"
      in
      Unix.kill pid Sys.sigkill;
      let saw_unavailable = ref false in
      let deadline = Unix.gettimeofday () +. 15.0 in
      let rec wait_recovered () =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "w0 did not recover within 15s"
        else begin
          let line = Router.handle_line router (line_of_request (P.Signature { session = id })) in
          let json = reply_fields line in
          match Option.bind (J.member "ok" json) J.to_bool with
          | Some true -> jstr "signature" json
          | _ -> (
            match
              Option.bind (J.member "error" json) (fun e ->
                  Option.bind (J.member "code" e) J.to_str)
            with
            | Some "session_unavailable" ->
              saw_unavailable := true;
              (match P.error_code_of_label "session_unavailable" with
              | Some code -> Alcotest.(check bool) "retryable" true (P.retryable code)
              | None -> Alcotest.fail "session_unavailable label unknown");
              Thread.delay 0.1;
              wait_recovered ()
            | Some other -> Alcotest.failf "unexpected error in crash window: %s" other
            | None -> Alcotest.failf "unstructured reply in crash window: %s" line)
        end
      in
      let sig1 = wait_recovered () in
      (* the replacement worker resumed the session from its journal:
         bit-identical signature, nothing acknowledged lost *)
      Alcotest.(check string) "signature survives restart" sig0 sig1;
      Alcotest.(check bool) "crash window was observable" true !saw_unavailable;
      let restarts = Supervisor.restarts sup in
      Alcotest.(check int) "w0 restarted once" 1
        (Option.value (List.assoc_opt "w0" restarts) ~default:(-1));
      Alcotest.(check int) "w1 untouched" 0
        (Option.value (List.assoc_opt "w1" restarts) ~default:(-1));
      (* the replacement was spawned while this process held the
         router's listening socket and its backend connections: none of
         them may have leaked into it (close-on-exec), or closing them
         here would no longer reach the peer *)
      let w0 = Option.get (Supervisor.pid sup "w0") in
      let ours = socket_inodes "self" in
      Alcotest.(check (list string)) "restarted w0 inherits none of our sockets" []
        (List.filter (fun s -> List.mem s ours) (socket_inodes (string_of_int w0))))

(* ------------------------------------------------------------------ *)
(* Pass-through differential: one router answers session a over its
   socket (the thin-parse pass-through) and session b through
   [Router.handle_line] (always the full parse); every op must get the
   same bytes (modulo the session id), including every error shape —
   the fast path is an optimization, never a semantic fork. *)

module Client = Ds_serve.Client

let ok_or = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

(* replace every occurrence of [needle] (a session id) with [sub] *)
let replace hay needle sub =
  let nn = String.length needle in
  let buf = Buffer.create (String.length hay) in
  let i = ref 0 in
  while !i < String.length hay do
    if
      !i + nn <= String.length hay
      && String.equal (String.sub hay !i nn) needle
    then begin
      Buffer.add_string buf sub;
      i := !i + nn
    end
    else begin
      Buffer.add_char buf hay.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let test_router_thin_vs_full () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = tmpdir "dse_test_diff" in
  let sup = Supervisor.start ~health_interval:0.1 (fleet_specs dir 2) in
  (match Supervisor.await_ready sup with
  | Ok () -> ()
  | Error msg ->
    Supervisor.stop sup;
    rm_rf dir;
    Alcotest.failf "fleet not ready: %s" msg);
  let sock = Filename.concat dir "router.sock" in
  let r = Router.create ~socket:sock ~workers:(Supervisor.workers sup) ~slots:4 () in
  let th = Thread.create Router.serve r in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown r;
      Thread.join th;
      Supervisor.stop sup;
      rm_rf dir)
  @@ fun () ->
  let ct = ok_or (Client.connect_retry ~socket:sock ()) in
  Fun.protect ~finally:(fun () -> Client.close ct) @@ fun () ->
  let passthrough () =
    Option.value ~default:0
      (List.assoc_opt "dse_router_passthrough_total" (Ds_obs.Obs.counters (Router.registry r)))
  in
  (* the two paths share one counter: attribute each delta to the path
     that produced it *)
  let thin_hits = ref 0 and full_hits = ref 0 in
  let counted hits f =
    let before = passthrough () in
    let reply = f () in
    hits := !hits + (passthrough () - before);
    reply
  in
  let thin line = counted thin_hits (fun () -> ok_or (Client.request_line ct line)) in
  let full line = counted full_hits (fun () -> Router.handle_line r line) in
  (* two sessions with identical histories, one driven down each path;
     ids share a length so reply bytes align after renaming *)
  let sid_t = "diffa" and sid_f = "diffb" in
  let differential ctx template =
    let reply_t = thin (replace template "%s" sid_t) in
    let reply_f = full (replace template "%s" sid_f) in
    Alcotest.(check string) ctx reply_t (replace reply_f sid_f sid_t)
  in
  List.iter
    (fun (ctx, template) -> differential ctx template)
    [
      ("open", {|{"op":"open","session":"%s","layer":"idct"}|});
      ("set", {|{"op":"set","session":"%s","name":"Word Size","value":16}|});
      ("default", {|{"op":"default","session":"%s","name":"Precision"}|});
      ("retract", {|{"op":"retract","session":"%s","name":"Precision"}|});
      ("annotate", {|{"op":"annotate","session":"%s","text":"same note"}|});
      ("candidates", {|{"op":"candidates","session":"%s","max":4}|});
      ("ranges", {|{"op":"ranges","session":"%s"}|});
      ("issues", {|{"op":"issues","session":"%s"}|});
      ("preview", {|{"op":"preview","session":"%s","issue":"Precision"}|});
      ("script", {|{"op":"script","session":"%s"}|});
      ("health", {|{"op":"health","session":"%s"}|});
      ("signature", {|{"op":"signature","session":"%s"}|});
      ("report", {|{"op":"report","session":"%s"}|});
      ( "batch",
        {|{"op":"batch","session":"%s","reqs":[{"op":"set","name":"Precision","value":12},{"op":"candidates","max":2},{"op":"retract","name":"Precision"}]}|}
      );
      ("compact", {|{"op":"compact","session":"%s"}|});
      ("close", {|{"op":"close","session":"%s"}|});
      (* close keeps the journal: the next touch rehydrates *)
      ("rehydrate", {|{"op":"signature","session":"%s"}|});
      (* error shapes must match too *)
      ("unknown property", {|{"op":"set","session":"%s","name":"No Such","value":1}|});
      ( "non-batchable sub-op",
        {|{"op":"batch","session":"%s","reqs":[{"op":"stats"}]}|} );
    ];
  (* a \u-escaped session id bails the thin scanner to the full parse;
     the raw line is still forwarded verbatim, so the reply must equal
     the plain-id reply *)
  let esc_t = thin {|{"op":"signature","session":"diff\u0061"}|} in
  let esc_f = full {|{"op":"signature","session":"diff\u0062"}|} in
  Alcotest.(check string) "escaped id routes identically" esc_t
    (replace esc_f sid_f sid_t);
  Alcotest.(check string) "escaped id answers like the plain id" esc_t
    (thin {|{"op":"signature","session":"diffa"}|});
  (* lines the thin scanner must hand to the full parse unchanged *)
  let same_error ctx line = Alcotest.(check string) ctx (thin line) (full line) in
  same_error "malformed json" "{\"op\":\"signature\",";
  same_error "unknown op" {|{"op":"frobnicate","session":"x"}|};
  same_error "unknown session" {|{"op":"signature","session":"ghost"}|};
  same_error "duplicate op keys" {|{"op":"signature","op":"candidates","session":"diffa"}|};
  (* the fast path was actually exercised over the socket and never by
     [handle_line] *)
  Alcotest.(check bool)
    (Printf.sprintf "socket path forwarded verbatim (%d)" !thin_hits)
    true (!thin_hits >= 10);
  Alcotest.(check int) "handle_line never did" 0 !full_hits;
  (* trace propagation: a well-formed top-level "trace" member rides
     the fast path (and both paths answer the same bytes); an escaped
     or duplicated trace member bails the thin scanner to the full
     parse — never a semantic fork *)
  let traced ctx ~fast line =
    let thin_before = !thin_hits and full_before = !full_hits in
    let reply_t = thin line in
    let reply_f = full line in
    Alcotest.(check string) ctx reply_t reply_f;
    Alcotest.(check int) (ctx ^ ": thin fast-path delta") (if fast then 1 else 0)
      (!thin_hits - thin_before);
    Alcotest.(check int) (ctx ^ ": handle_line fast-path delta") 0 (!full_hits - full_before)
  in
  let ctx = "00112233445566778899aabbccddeeff-0123456789abcdef" in
  traced "well-formed trace stays fast" ~fast:true
    (Printf.sprintf {|{"op":"signature","session":"diffa","trace":"%s"}|} ctx);
  traced "unparseable trace value stays fast (just no context)" ~fast:true
    {|{"op":"signature","session":"diffa","trace":"bogus"}|};
  traced "escaped trace bails to the full parse" ~fast:false
    {|{"op":"signature","session":"diffa","trace":"00112233445566778899aabbccddeeff-0123456789abcde\u0066"}|};
  traced "duplicate trace bails to the full parse" ~fast:false
    (Printf.sprintf {|{"op":"signature","session":"diffa","trace":"%s","trace":"%s"}|} ctx ctx)

(* ------------------------------------------------------------------ *)
(* The socket front ends — the router and the worker server — run
   in-process with nothing behind them: [healthz] is answered by the
   router itself and by the service without a session.  [f] gets the
   socket and the front end's retired-connection count. *)

let with_front_end kind f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = tmpdir "dse_test_front" in
  let sock = Filename.concat dir "front.sock" in
  let served, shutdown, serve =
    match kind with
    | `Router ->
      let r = Router.create ~socket:sock ~workers:[] () in
      ((fun () -> Router.connections_served r), (fun () -> Router.shutdown r), fun () -> Router.serve r)
    | `Server ->
      let svc =
        Ds_serve.Service.create (Ds_serve.Service.config ~layers:Ds_domains.Catalog.factories ())
      in
      let s = Ds_serve.Server.create ~socket:sock ~pool:2 svc in
      ( (fun () -> Ds_serve.Server.connections_served s),
        (fun () -> Ds_serve.Server.shutdown s),
        fun () -> Ds_serve.Server.serve s )
  in
  let th = Thread.create serve () in
  Fun.protect
    ~finally:(fun () ->
      shutdown ();
      Thread.join th;
      rm_rf dir)
    (fun () -> f sock served)

let front_end_name = function `Router -> "router" | `Server -> "server"

let expect_healthz ctx c =
  let reply = reply_fields (ok_or (Client.request_line c {|{"op":"healthz"}|})) in
  match Option.bind (J.member "ok" reply) J.to_bool with
  | Some true -> ()
  | _ -> Alcotest.failf "%s: healthz failed: %s" ctx (J.to_string reply)

(* Connection churn: nothing a front end keeps per connection may
   outlive the connection.  Each short connection asks [healthz] and
   hangs up; after a warm-up round the live major heap must stay flat
   across thousands more.  Tracing is off for the run: the span ring
   retains up to its capacity by design, which would swamp the
   per-connection figure. *)

let test_router_churn_flat () =
  let tracing = Ds_obs.Obs.enabled () in
  Ds_obs.Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Ds_obs.Obs.set_enabled tracing) @@ fun () ->
  List.iter
    (fun kind ->
      let name = front_end_name kind in
      with_front_end kind @@ fun sock served ->
      let churn n =
        for _ = 1 to n do
          let c = ok_or (Client.connect_retry ~socket:sock ()) in
          expect_healthz name c;
          Client.close c
        done
      in
      (* the reply can reach the client before its connection has
         retired, so wait for the front end to count every hang-up *)
      let settle target =
        let deadline = Unix.gettimeofday () +. 10.0 in
        while served () < target && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        Alcotest.(check int) (name ^ ": every connection retired") target (served ());
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let warm = 500 and n = 5000 in
      churn warm;
      let before = settle warm in
      churn n;
      let after = settle (warm + n) in
      let per_conn = float_of_int (after - before) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: live heap grew %.2f words per connection (%d -> %d)" name per_conn
           before after)
        true (per_conn < 1.0))
    [ `Router; `Server ]

(* Descriptors >= 1024: a worker holds one journal fd per open session,
   so its late-accepted connections can land above the select(2)
   limit.  Pad this process's descriptor table past 1024, then a
   round trip through each front end must still be answered (a
   select-based drain probe raised EINVAL there and dropped the
   connection), and so must a pipelined burst larger than the 8 KiB
   read buffer, which takes the non-blocking drain read. *)

let test_high_fd_round_trip () =
  let pads = List.init 1100 (fun _ -> Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0) in
  Fun.protect ~finally:(fun () -> List.iter Unix.close pads) @@ fun () ->
  List.iter
    (fun kind ->
      let name = front_end_name kind in
      with_front_end kind @@ fun sock _ ->
      let c = ok_or (Client.connect_retry ~socket:sock ()) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (* a front end that stopped accepting must fail the test, not
         hang it *)
      Unix.setsockopt_float (Client.fd c) Unix.SO_RCVTIMEO 10.0;
      (* on Unix a descriptor is its number; the accepted end is
         allocated after this one *)
      Alcotest.(check bool) (name ^ ": connection above fd 1024") true
        ((Obj.magic (Client.fd c) : int) >= 1024);
      expect_healthz name c;
      List.iter
        (fun reply ->
          let reply = ok_or reply in
          match Option.bind (J.member "ok" (reply_fields reply)) J.to_bool with
          | Some true -> ()
          | _ -> Alcotest.failf "%s: pipelined healthz failed: %s" name reply)
        (Client.pipeline c (List.init 600 (fun _ -> {|{"op":"healthz"}|}))))
    [ `Router; `Server ]

(* ------------------------------------------------------------------ *)
(* Cross-process trace assembly: a traced batch through the router
   leaves spans in two real processes (the router's ring lives in this
   process; the op spans in the worker), and the fleet-wide trace
   collection reassembles one tree — siblings under the client's
   minted (virtual-root) span, children nested by local ids within
   each shard.  DESIGN.md 18. *)

module Obs = Ds_obs.Obs

let test_fleet_trace_assembly () =
  with_fleet (fun _sup router ->
      Obs.set_enabled true;
      Obs.set_trace_sample 1.0;
      open_session router "tra";
      let trace = Obs.mint_trace () in
      let tid, psid = Option.get (Obs.parse_trace trace) in
      let batch_line =
        Printf.sprintf
          {|{"op":"batch","session":"tra","reqs":[{"op":"set","name":"Word Size","value":16},{"op":"candidates","max":2}],"trace":"%s"}|}
          trace
      in
      let t0 = Unix.gettimeofday () in
      let reply = reply_fields (Router.handle_line router batch_line) in
      let wall_us = (Unix.gettimeofday () -. t0) *. 1e6 in
      (match Option.bind (J.member "ok" reply) J.to_bool with
      | Some true -> ()
      | _ -> Alcotest.failf "traced batch failed: %s" (J.to_string reply));
      let tr = expect_ok router (P.Trace { session = ""; spans = true; since = None; max_spans = None }) in
      let spans =
        match Option.bind (J.member "spans" tr) J.to_list with
        | Some l -> l
        | None -> Alcotest.fail "merged trace without spans"
      in
      let attr k sp = Option.bind (J.member "attrs" sp) (J.str_member k) in
      let shard sp = Option.value ~default:"?" (J.str_member "shard" sp) in
      let ours = List.filter (fun sp -> attr "trace" sp = Some tid) spans in
      let one name =
        match List.filter (fun sp -> J.str_member "name" sp = Some name) ours with
        | [ sp ] -> sp
        | l -> Alcotest.failf "expected exactly one %s span in the trace, got %d" name (List.length l)
      in
      (* the router hop and the worker's request root are siblings
         under the client's span — an id recorded by NO process *)
      let hop = one "router.route" and batch = one "op.batch" in
      Alcotest.(check string) "router hop tagged as the router" "router" (shard hop);
      Alcotest.(check (option string)) "router hop parents under the client span"
        (Some psid) (attr "parent_span" hop);
      Alcotest.(check (option string)) "worker root parents under the client span"
        (Some psid) (attr "parent_span" batch);
      Alcotest.(check bool) "worker root lives on a worker shard" true
        (match shard batch with "w0" | "w1" -> true | _ -> false);
      Alcotest.(check bool) "fleet span ids are distinct across processes" true
        (attr "span" hop <> attr "span" batch && attr "span" hop <> None);
      (* sub-requests nest as local children of the worker root *)
      let bid =
        match Option.bind (J.member "id" batch) J.to_int with
        | Some i -> i
        | None -> Alcotest.fail "worker root without a local id"
      in
      let kids =
        List.filter
          (fun sp ->
            String.equal (shard sp) (shard batch)
            && Option.bind (J.member "parent" sp) J.to_int = Some bid)
          spans
      in
      Alcotest.(check bool) "batch sub-requests nest under the root" true (kids <> []);
      (* phase attribution: every phase present, non-negative, and the
         sum bounded by the observed wall time (loose: the phases are a
         decomposition of the worker-side handle, wall includes IPC) *)
      let phases = [ "queue_us"; "lock_us"; "sweep_us"; "journal_us"; "fsync_us"; "flush_us" ] in
      let total =
        List.fold_left
          (fun acc k ->
            match attr k batch with
            | None -> Alcotest.failf "worker root missing phase %s" k
            | Some v -> (
              match float_of_string_opt v with
              | Some f when f >= 0.0 -> acc +. f
              | _ -> Alcotest.failf "phase %s is not a non-negative float: %s" k v))
          0.0 phases
      in
      Alcotest.(check bool)
        (Printf.sprintf "phase sum %.1fus within wall %.1fus" total wall_us)
        true
        (total <= (wall_us *. 1.5) +. 1_000.0))

(* ------------------------------------------------------------------ *)
(* The HTTP observability plane: Router.http_routes behind a real
   listener on an ephemeral port.  /metrics is a Prometheus text
   exposition covering every shard plus the router; /healthz is the
   live probe roll-up and flips to "degraded" while a worker is down. *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path in
  let _ = Unix.write_substring fd req 0 (String.length req) in
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  let resp = Buffer.contents buf in
  let status =
    match String.index_opt resp ' ' with
    | Some i -> ( try int_of_string (String.sub resp (i + 1) 3) with _ -> -1)
    | None -> -1
  in
  let body =
    let rec find i =
      if i + 4 > String.length resp then String.length resp
      else if String.equal (String.sub resp i 4) "\r\n\r\n" then i + 4
      else find (i + 1)
    in
    let start = find 0 in
    String.sub resp start (String.length resp - start)
  in
  (status, body)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
  go 0

let test_fleet_http_plane () =
  with_fleet (fun sup router ->
      let h =
        match Ds_serve.Httpd.start ~addr:("127.0.0.1", 0) ~routes:(Router.http_routes router) () with
        | Ok h -> h
        | Error msg -> Alcotest.failf "httpd did not start: %s" msg
      in
      Fun.protect ~finally:(fun () -> Ds_serve.Httpd.stop h)
      @@ fun () ->
      let port = Ds_serve.Httpd.port h in
      (* a client that connects and never sends its head is dropped
         after the head deadline (2 s), while the plane keeps answering
         meanwhile *)
      let silent = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect silent (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let t0 = Unix.gettimeofday () in
      let status, _ = http_get port "/metrics" in
      Alcotest.(check int) "/metrics answers beside a silent client" 200 status;
      Unix.setsockopt_float silent Unix.SO_RCVTIMEO 6.0;
      let dropped =
        match Unix.read silent (Bytes.create 1) 0 1 with
        | n -> n = 0
        | exception Unix.Unix_error _ -> false
      in
      let waited = Unix.gettimeofday () -. t0 in
      Unix.close silent;
      Alcotest.(check bool)
        (Printf.sprintf "silent client dropped within the deadline (%.2fs)" waited)
        true
        (dropped && waited < 3.5);
      (* /metrics: one exposition per shard plus the router's own *)
      let status, body = http_get port "/metrics" in
      Alcotest.(check int) "/metrics status" 200 status;
      Alcotest.(check bool) "/metrics leads with build info" true
        (contains body "dse_build_info{version=");
      List.iter
        (fun (w, _) ->
          Alcotest.(check bool) ("/metrics covers " ^ w) true
            (contains body (Printf.sprintf "# shard %s" w)))
        (Supervisor.workers sup);
      Alcotest.(check bool) "/metrics covers the router" true (contains body "# router");
      (* /healthz: all workers up *)
      let status, body = http_get port "/healthz" in
      Alcotest.(check int) "/healthz status" 200 status;
      let health = reply_fields (String.trim body) in
      Alcotest.(check string) "/healthz ok" "ok" (jstr "status" health);
      (* /tracez parses as JSON with a spans member *)
      let status, body = http_get port "/tracez" in
      Alcotest.(check int) "/tracez status" 200 status;
      (match Option.bind (J.member "spans" (reply_fields (String.trim body))) J.to_list with
      | Some _ -> ()
      | None -> Alcotest.failf "/tracez without spans: %s" body);
      (* unknown path *)
      let status, _ = http_get port "/nope" in
      Alcotest.(check int) "unknown path is 404" 404 status;
      (* kill a worker: /healthz flips to degraded during the crash
         window, then back to ok once the supervisor restarts it *)
      let pid =
        match Supervisor.pid sup "w0" with
        | Some p -> p
        | None -> Alcotest.fail "no pid for w0"
      in
      Unix.kill pid Sys.sigkill;
      let deadline = Unix.gettimeofday () +. 15.0 in
      let rec wait_degraded () =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "/healthz never reported the dead worker"
        else begin
          let _, body = http_get port "/healthz" in
          let health = reply_fields (String.trim body) in
          if String.equal (jstr "status" health) "degraded" then begin
            match Option.bind (J.member "workers" health) (J.str_member "w0") with
            | Some s when not (String.equal s "ok") -> ()
            | _ -> Alcotest.failf "degraded without naming w0: %s" body
          end
          else begin
            Thread.delay 0.02;
            wait_degraded ()
          end
        end
      in
      wait_degraded ();
      let rec wait_recovered () =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "/healthz did not recover after restart"
        else begin
          let _, body = http_get port "/healthz" in
          if String.equal (jstr "status" (reply_fields (String.trim body))) "ok" then ()
          else begin
            Thread.delay 0.1;
            wait_recovered ()
          end
        end
      in
      wait_recovered ())

let () =
  Alcotest.run "fleet"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic across member order" `Quick test_ring_deterministic;
          Alcotest.test_case "stable and unambiguous" `Quick test_ring_pinned;
          Alcotest.test_case "empty and single member" `Quick test_ring_empty_and_single;
          Alcotest.test_case "spread within 20% of uniform" `Quick test_ring_spread;
          Alcotest.test_case "remove moves ~1/8, others sticky" `Quick test_ring_movement_remove;
          Alcotest.test_case "add moves ~1/9, all to the new member" `Quick test_ring_movement_add;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "routing, minting, colocated branch" `Quick
            test_fleet_routing_and_minting;
          Alcotest.test_case "metrics fan-out merges bucket-wise" `Quick test_fleet_metrics_merge;
          Alcotest.test_case "healthz probes every worker" `Quick test_fleet_healthz;
          Alcotest.test_case "SIGKILL -> retryable error -> journal resume" `Quick
            test_fleet_kill_restart_resume;
          Alcotest.test_case "thin-parse vs full-parse differential" `Quick
            test_router_thin_vs_full;
          Alcotest.test_case "router connection churn holds memory flat" `Quick
            test_router_churn_flat;
          Alcotest.test_case "round trip on a descriptor above 1024" `Quick
            test_high_fd_round_trip;
          Alcotest.test_case "cross-process trace assembly" `Quick test_fleet_trace_assembly;
          Alcotest.test_case "http observability plane" `Quick test_fleet_http_plane;
        ] );
    ]
