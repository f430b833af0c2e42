(* Counter and histogram windows over [metrics] op snapshots.

   A snapshot is the fleet-merged reply (or a single server's) flattened
   to "registry/name" keys; a window is the difference of two of them.
   Counter resets (a process restarted between the snapshots) clamp to 0
   exactly as [dse top] does, via {!Ds_obs.Obs.window_delta}, and
   quantiles come from {!Ds_obs.Obs.quantile_of} over the differenced
   bucket counts. *)

module J = Ds_serve.Jsonx
module Obs = Ds_obs.Obs

type hist = { count : int; sum : float; max : float; buckets : int array }

type snap = {
  counters : (string * int) list;
  hists : (string * hist) list;
  shards : (string * snap) list;  (** per-worker views of a fleet reply *)
}

let empty = { counters = []; hists = []; shards = [] }
let nbuckets = Array.length Obs.bucket_bounds + 1

let hist_of_json j =
  let int k = Option.value (Option.bind (J.member k j) J.to_int) ~default:0 in
  let flt k = Option.value (Option.bind (J.member k j) J.to_float) ~default:0.0 in
  let buckets =
    match Option.bind (J.member "buckets" j) J.to_list with
    | Some l -> Array.of_list (List.map (fun x -> Option.value (J.to_int x) ~default:0) l)
    | None -> Array.make nbuckets 0
  in
  { count = int "count"; sum = flt "sum"; max = flt "max"; buckets }

let fields j = match j with J.Obj kvs -> kvs | _ -> []

let rec of_json j =
  let regs = fields (Option.value (J.member "registries" j) ~default:(J.Obj [])) in
  let counters =
    List.concat_map
      (fun (reg, r) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun n -> (reg ^ "/" ^ k, n)) (J.to_int v))
          (fields (Option.value (J.member "counters" r) ~default:(J.Obj []))))
      regs
  in
  let hists =
    List.concat_map
      (fun (reg, r) ->
        List.map
          (fun (k, v) -> (reg ^ "/" ^ k, hist_of_json v))
          (fields (Option.value (J.member "histograms" r) ~default:(J.Obj []))))
      regs
  in
  let shards =
    List.map (fun (w, v) -> (w, of_json v))
      (fields (Option.value (J.member "shards" j) ~default:(J.Obj [])))
  in
  { counters; hists; shards }

let counter s k = Option.value (List.assoc_opt k s.counters) ~default:0

let hist s k =
  match List.assoc_opt k s.hists with
  | Some h -> h
  | None -> { count = 0; sum = 0.0; max = 0.0; buckets = Array.make nbuckets 0 }

let hist_delta ~prev ~cur =
  {
    count = Obs.window_delta ~prev:prev.count ~cur:cur.count;
    sum = (if cur.count < prev.count then 0.0 else Float.max 0.0 (cur.sum -. prev.sum));
    max = cur.max;
    buckets =
      (if cur.count < prev.count then Array.make (Array.length cur.buckets) 0
       else Obs.window_counts ~prev:prev.buckets ~cur:cur.buckets);
  }

let rec diff ~prev ~cur =
  {
    counters =
      List.map (fun (k, v) -> (k, Obs.window_delta ~prev:(counter prev k) ~cur:v)) cur.counters;
    hists = List.map (fun (k, h) -> (k, hist_delta ~prev:(hist prev k) ~cur:h)) cur.hists;
    shards =
      List.map
        (fun (w, s) ->
          (w, diff ~prev:(Option.value (List.assoc_opt w prev.shards) ~default:empty) ~cur:s))
        cur.shards;
  }

let hist_add a b =
  {
    count = a.count + b.count;
    sum = a.sum +. b.sum;
    max = Float.max a.max b.max;
    buckets =
      (if Array.length a.buckets = 0 then b.buckets
       else Array.mapi (fun i x -> x + if i < Array.length b.buckets then b.buckets.(i) else 0) a.buckets);
  }

(* Sum of two windows — phases measured on different fleet instances
   add up bucket-wise. *)
let rec add a b =
  let keys l1 l2 = List.sort_uniq compare (List.map fst l1 @ List.map fst l2) in
  {
    counters = List.map (fun k -> (k, counter a k + counter b k)) (keys a.counters b.counters);
    hists = List.map (fun k -> (k, hist_add (hist a k) (hist b k))) (keys a.hists b.hists);
    shards =
      List.map
        (fun w ->
          let get s = Option.value (List.assoc_opt w s.shards) ~default:empty in
          (w, add (get a) (get b)))
        (keys a.shards b.shards);
  }

(* Bucket-wise merge of every histogram whose key satisfies [pred]. *)
let merged s pred =
  List.fold_left
    (fun acc (k, h) -> if pred k then hist_add acc h else acc)
    { count = 0; sum = 0.0; max = 0.0; buckets = Array.make nbuckets 0 }
    s.hists

let quantile h q =
  if h.count = 0 then 0.0 else Obs.quantile_of ~counts:h.buckets ~count:h.count ~max:h.max q

(* The op label of a [dse_request_us{op="..."}] key, if it is one. *)
let request_op key =
  let pre = "service/dse_request_us{op=\"" in
  let lp = String.length pre and lk = String.length key in
  if lk > lp + 2 && String.sub key 0 lp = pre then Some (String.sub key lp (lk - lp - 2))
  else None
