(* Entry point: one benchmark run of one workload.

     bench.exe --dse PATH --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints every end-to-end metric; with --trace 1 the
   per-layer metrics of the traced layer ladder.  A human report goes to
   stderr; the last stdout line is the result object. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --dse PATH --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

(* The commit the checkout was built from, when it is a git checkout. *)
let git_rev () =
  let read path =
    try
      let ic = open_in path in
      let l = input_line ic in
      close_in ic;
      Some (String.trim l)
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    Option.value (read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))) ~default:"unknown"
  | Some rev -> rev
  | None -> "unknown"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dse = ref "" and workload = ref "" and seed = ref None and seconds = ref 10.0
  and trace = ref false in
  let rec parse = function
    | "--dse" :: v :: tl -> dse := v; parse tl
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string_opt v; parse tl
    | "--seconds" :: v :: tl -> seconds := float_of_string v; parse tl
    | "--trace" :: v :: tl -> trace := v = "1"; parse tl
    | [] -> ()
    | a :: _ -> prerr_endline ("unknown argument " ^ a); usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let plan = match Workload.find !workload with Some p -> p | None -> usage () in
  let seed = match !seed with Some s -> s | None -> usage () in
  if not (Sys.file_exists !dse) then (prerr_endline ("no service binary at " ^ !dse); exit 2);
  let root = Filename.concat ".perfbench_state" (Printf.sprintf "%s-%d" !workload seed) in
  Procs.rm_rf root;
  Procs.mkdir_p root;
  let cleanup () = Fleetctl.cleanup () in
  at_exit cleanup;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> cleanup (); exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let o = Workload.run ~dse:!dse ~root ~seed ~seconds:!seconds plan in
  let metrics =
    if !trace then
      Ladder.run ~dse:!dse ~root
        ~spans_file:(Printf.sprintf ".perfbench_state/spans-%s-%d.jsonl" !workload seed)
        ~seed ~seconds:!seconds plan o
    else Workload.end_to_end o
  in
  let tails = Workload.tails o in
  Procs.rm_rf root;
  let attempted = Atomic.get o.Workload.book.attempted
  and failed = Atomic.get o.Workload.book.failed in
  let failed_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  let host =
    Printf.sprintf
      "{\"host\": {\"nproc\": %d, \"ocaml\": \"%s\", \"git_rev\": \"%s\"}, \"workload\": \"%s\", \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"samples\": {%s}, \"failed_ratio\": %g, \"steal_share\": %.4f}"
      (Domain.recommended_domain_count ()) Sys.ocaml_version (git_rev ()) !workload seed !seconds
      !trace
      (String.concat ", " (List.map (fun (k, _, n) -> Printf.sprintf "\"%s\": %d" k n) tails))
      failed_ratio (Workload.steal_share o)
  in
  prerr_endline host;
  List.iter
    (fun m -> Printf.eprintf "  %-34s %14.4f %s\n" m.Workload.name m.value m.unit_)
    metrics;
  if not !trace then Printf.eprintf "  %-34s %14.6f ratio\n" "failed_ratio" failed_ratio;
  List.iter
    (fun (k, v, n) -> Printf.eprintf "  %-34s %14.4f us (%d samples, not gated)\n" k v n)
    tails;
  Printf.eprintf "  attempted %d, failed %d\n%!" attempted failed;
  print_endline host;
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (failed = 0) attempted failed;
  List.iteri
    (fun i m ->
      Printf.bprintf buf "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ") m.Workload.name m.value m.unit_)
    metrics;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)
