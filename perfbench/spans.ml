(* The benchmark's own tracer: spans recorded around the calls it makes
   into each layer (never inside the program), kept in memory and
   written out once at the end.  Off unless the traced mode turns it
   on, so measured runs pay one branch per call site. *)

type span = {
  id : int;
  parent : int;  (** -1 for roots *)
  name : string;
  rid : int;  (** request id: spans of one request share it *)
  t0 : float;  (** seconds *)
  t1 : float;
}

let cap = 400_000
let on = ref false
let recorded : span list ref = ref []
let count = ref 0
let dropped = ref 0
let next_id = ref 0
let lock = Mutex.create ()

let reset () =
  recorded := [];
  count := 0;
  dropped := 0;
  next_id := 0

let fresh_id () =
  Mutex.lock lock;
  incr next_id;
  let id = !next_id in
  Mutex.unlock lock;
  id

let record s =
  Mutex.lock lock;
  if !count < cap then begin
    recorded := s :: !recorded;
    incr count
  end
  else incr dropped;
  Mutex.unlock lock

(* [with_span ~rid ~parent name f] times [f] and records the span when
   tracing is on; [f] receives the span's id so nested calls can parent
   under it. *)
let with_span ?(parent = -1) ~rid name f =
  if not !on then f (-1)
  else begin
    let id = fresh_id () in
    let t0 = Unix.gettimeofday () in
    let finish () = record { id; parent; name; rid; t0; t1 = Unix.gettimeofday () } in
    match f id with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Record an already-timed interval (the load generator times round
   trips itself). *)
let add ?(parent = -1) ~rid name t0 t1 =
  if !on then record { id = fresh_id (); parent; name; rid; t0; t1 }

let all () = List.rev !recorded

(* Self time: the span's duration minus the part of its interval its
   children cover (children clipped to the parent, overlaps merged). *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.filter_map (fun c ->
               let a = Float.max c.t0 s.t0 and b = Float.min c.t1 s.t1 in
               if b > a then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            if b <= hi then (acc, hi)
            else
              let a = Float.max a hi in
              (acc +. (b -. a), b))
          (0.0, neg_infinity) ivs
      in
      (s, s.t1 -. s.t0 -. covered))
    spans

let to_json s =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"name\":%S,\"rid\":%d,\"start\":%.6f,\"end\":%.6f}" s.id
    s.parent s.name s.rid s.t0 s.t1

let write_out path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (to_json s);
      output_char oc '\n')
    (all ());
  close_out oc
