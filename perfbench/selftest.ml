(* Self-tests of the benchmark's own machinery: stream determinism,
   span self time, counter windows and read/write classification. *)

open Perfbench
module P = Ds_serve.Protocol
module Value = Ds_layer.Value

let check_bool msg b = Alcotest.(check bool) msg true b

(* ----- request streams ------------------------------------------------- *)

let test_stream_determinism () =
  List.iter
    (fun (w : Reqgen.workload) ->
      let a = Reqgen.prefix w ~seed:7 ~n:600 and b = Reqgen.prefix w ~seed:7 ~n:600 in
      Alcotest.(check string) (w.name ^ ": same seed, same bytes") a b;
      let c = Reqgen.prefix w ~seed:8 ~n:600 in
      check_bool (w.name ^ ": another seed, another stream") (a <> c))
    Reqgen.workloads

(* Every generated line decodes to the request it was built from, and
   the stream never touches a session outside its connection's share. *)
let test_stream_wellformed () =
  List.iter
    (fun (w : Reqgen.workload) ->
      for c = 0 to Reqgen.conns - 1 do
        let next = w.stream ~seed:3 ~c in
        for _ = 1 to 500 do
          let r = next () in
          (match P.parse_request r.line with
          | Ok q -> check_bool (w.name ^ ": line round-trips") (q = r.preq)
          | Error (_, m) -> Alcotest.fail (w.name ^ ": " ^ m));
          Alcotest.(check int) (w.name ^ ": session stays on its connection") c
            (r.sess mod Reqgen.conns)
        done
      done)
    Reqgen.workloads

(* ----- classification ----------------------------------------------- *)

let s = "s1"

let every_op =
  let set = P.Set { session = s; name = "x"; value = Value.int 1; decide = false } in
  let decide = P.Set { session = s; name = "x"; value = Value.int 1; decide = true } in
  let cands = P.Candidates { session = s; max = Some 4 } in
  [
    ("open", P.Open { session = Some s; layer = "idct"; eol = None; resume = false }, Reqgen.Read);
    ("open resume", P.Open { session = Some s; layer = "idct"; eol = None; resume = true }, Reqgen.Read);
    ("set", set, Reqgen.Write);
    ("decide", decide, Reqgen.Write);
    ("default", P.Default { session = s; name = "x" }, Reqgen.Write);
    ("retract", P.Retract { session = s; name = "x" }, Reqgen.Write);
    ("annotate", P.Annotate { session = s; text = "t" }, Reqgen.Write);
    ("candidates", cands, Reqgen.Read);
    ("ranges", P.Ranges { session = s; merits = None }, Reqgen.Read);
    ("issues", P.Issues { session = s }, Reqgen.Read);
    ("preview", P.Preview { session = s; issue = "i"; merit = None }, Reqgen.Read);
    ("script", P.Script { session = s }, Reqgen.Read);
    ("trace", P.Trace { session = s; spans = false; since = None; max_spans = None }, Reqgen.Read);
    ("trace spans", P.Trace { session = ""; spans = true; since = Some 0; max_spans = None }, Reqgen.Read);
    ("health", P.Health { session = s }, Reqgen.Read);
    ("signature", P.Signature { session = s }, Reqgen.Read);
    ("report", P.Report { session = s; title = None }, Reqgen.Read);
    ("branch", P.Branch { session = s; as_id = None }, Reqgen.Read);
    ("compact", P.Compact { session = s }, Reqgen.Read);
    ("close", P.Close { session = s }, Reqgen.Read);
    ("stats", P.Stats, Reqgen.Read);
    ("metrics", P.Metrics { format = None }, Reqgen.Read);
    ("healthz", P.Healthz, Reqgen.Read);
    ("batch of reads", P.Batch { session = s; reqs = [ cands; P.Signature { session = s } ] }, Reqgen.Read);
    ("mutating batch", P.Batch { session = s; reqs = [ cands; set ] }, Reqgen.Write);
  ]

let test_classify () =
  List.iter
    (fun (label, req, want) ->
      check_bool ("classify " ^ label) (Reqgen.classify req = want))
    every_op

let test_mutations () =
  let set = P.Set { session = s; name = "x"; value = Value.int 1; decide = false } in
  let note = P.Annotate { session = s; text = "t" } in
  let b = P.Batch { session = s; reqs = [ set; P.Signature { session = s }; note ] } in
  check_bool "batch mutations in order" (Reqgen.mutations b = [ set; note ]);
  check_bool "reads apply nothing" (Reqgen.mutations (P.Signature { session = s }) = [])

(* ----- spans --------------------------------------------------------- *)

let sp id parent t0 t1 = { Spans.id; parent; name = string_of_int id; rid = 1; t0; t1 }

(* root [0,10] with children [1,3] and [2,5] (overlapping) and [8,12]
   (sticking out past the root); grandchild [1.5,2] inside child 2. *)
let test_self_time () =
  let tree =
    [ sp 1 (-1) 0.0 10.0; sp 2 1 1.0 3.0; sp 3 1 2.0 5.0; sp 4 1 8.0 12.0; sp 5 2 1.5 2.0 ]
  in
  let self = Spans.self_times tree in
  let get id = snd (List.find (fun ((s : Spans.span), _) -> s.id = id) self) in
  let near msg want got = Alcotest.(check (float 1e-9)) msg want got in
  near "root: 10 - [1,5] - [8,10]" 4.0 (get 1);
  near "child with grandchild" 1.5 (get 2);
  near "leaf" 3.0 (get 3);
  near "leaf past its parent keeps its own duration" 4.0 (get 4);
  near "grandchild" 0.5 (get 5)

let test_with_span () =
  Spans.reset ();
  Spans.on := true;
  let v = Spans.with_span ~rid:9 "outer" (fun parent -> Spans.with_span ~parent ~rid:9 "inner" (fun _ -> 42)) in
  Spans.on := false;
  Alcotest.(check int) "value passes through" 42 v;
  match Spans.all () with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner closes first" "inner" inner.name;
    Alcotest.(check int) "parented" outer.id inner.parent;
    Alcotest.(check int) "request id shared" outer.rid inner.rid
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

(* ----- counter windows ---------------------------------------------- *)

let hist count buckets = { Delta.count; sum = float_of_int count; max = 10.0; buckets }

let snap counters hists = { Delta.counters; hists; shards = [] }

let test_delta () =
  let nb = Delta.nbuckets in
  let b l = Array.init nb (fun i -> if i < List.length l then List.nth l i else 0) in
  let prev = snap [ ("a", 10); ("b", 50) ] [ ("h", hist 3 (b [ 1; 2 ])) ] in
  let cur = snap [ ("a", 25); ("b", 4) ] [ ("h", hist 7 (b [ 2; 5 ])) ] in
  let d = Delta.diff ~prev ~cur in
  Alcotest.(check int) "counter window" 15 (Delta.counter d "a");
  Alcotest.(check int) "counter reset reads 0, not negative" 0 (Delta.counter d "b");
  let h = Delta.hist d "h" in
  Alcotest.(check int) "histogram count window" 4 h.count;
  Alcotest.(check (list int)) "bucket windows" [ 1; 3; 0 ] [ h.buckets.(0); h.buckets.(1); h.buckets.(2) ];
  let reset = Delta.diff ~prev:cur ~cur:(snap [] [ ("h", hist 1 (b [ 1 ])) ]) in
  Alcotest.(check int) "histogram reset reads empty" 0 (Delta.hist reset "h").count;
  Alcotest.(check int) "missing counter reads 0" 0 (Delta.counter reset "a");
  let sum = Delta.add d d in
  Alcotest.(check int) "windows add" 30 (Delta.counter sum "a");
  Alcotest.(check int) "histograms add" 8 (Delta.hist sum "h").count

let test_quantile () =
  let nb = Delta.nbuckets in
  let h = hist 100 (Array.init nb (fun i -> if i = 0 then 100 else 0)) in
  check_bool "all samples in the first bucket" (Delta.quantile h 0.99 <= Ds_obs.Obs.bucket_bounds.(0));
  Alcotest.(check (float 0.0)) "empty window" 0.0 (Delta.quantile (hist 0 (Array.make nb 0)) 0.5)

let test_request_op () =
  Alcotest.(check (option string)) "op label" (Some "set")
    (Delta.request_op "service/dse_request_us{op=\"set\"}");
  Alcotest.(check (option string)) "other histogram" None (Delta.request_op "service/dse_queue_wait_us")

let () =
  Alcotest.run "perfbench"
    [
      ( "stream",
        [
          Alcotest.test_case "seed determinism" `Quick test_stream_determinism;
          Alcotest.test_case "well-formed lines" `Quick test_stream_wellformed;
        ] );
      ( "classify",
        [
          Alcotest.test_case "every protocol op" `Quick test_classify;
          Alcotest.test_case "acknowledged mutations" `Quick test_mutations;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "nesting" `Quick test_with_span;
        ] );
      ( "delta",
        [
          Alcotest.test_case "counter reset" `Quick test_delta;
          Alcotest.test_case "quantiles" `Quick test_quantile;
          Alcotest.test_case "request op" `Quick test_request_op;
        ] );
    ]
