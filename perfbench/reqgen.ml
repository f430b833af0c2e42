(* Seeded request streams for the benchmark workloads.

   The service only ever sees the generated request lines; everything
   random about a run (values, visiting orders, decision walks) flows
   from the workload seed through [Rng], so one seed gives one
   byte-identical stream.  Session ids are fixed per workload, so the
   shard split does not depend on the seed. *)

module P = Ds_serve.Protocol
module Value = Ds_layer.Value

(* splitmix64 on boxed Int64s: slow next to a native-int generator, but
   the hot loops replay precomputed arrays and never draw. *)
module Rng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.(add (of_int seed) 0x9E3779B97F4A7C15L) }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let int t bound = Int64.(to_int (unsigned_rem (next t) (of_int bound)))

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done

  (* an independent generator per (seed, stream) pair *)
  let derive seed stream = make ((seed * 1_000_003) + (stream * 7919) + 17)
end

type cls = Read | Write

let is_mutation = function
  | P.Set _ | P.Default _ | P.Retract _ | P.Annotate _ -> true
  | _ -> false

(* Writes are the designer's mutations (set/decide/default/retract/
   annotate) and batches carrying at least one of them; every other op
   — lifecycle, queries, admin — is a read. *)
let classify = function
  | P.Batch { reqs; _ } -> if List.exists is_mutation reqs then Write else Read
  | r -> if is_mutation r then Write else Read

(* The journalled designer mutations a request applies when it is
   acknowledged, in order — what the in-process replay re-applies. *)
let mutations = function
  | P.Batch { reqs; _ } -> List.filter is_mutation reqs
  | r -> if is_mutation r then [ r ] else []

type req = {
  line : string;  (** the wire line, without its newline *)
  cls : cls;
  sess : int;  (** index into the workload's session array *)
  preq : P.request;
}

let mk sess preq =
  { line = Ds_serve.Jsonx.to_string (P.json_of_request preq); cls = classify preq; sess; preq }

(* ----- workload shapes ------------------------------------------------ *)

type shape = {
  layer : string;
  sessions : string array;
}

(* Every workload is driven over two connections (the host has two
   cores). *)
let conns = 2

let idct_sessions prefix n = Array.init n (fun i -> Printf.sprintf "%s%04d" prefix i)

(* Sessions connection [c] of [conns] drives: a fixed residue class, so
   every session's requests travel one connection, in order. *)
let owned ~conns ~c n = Array.of_list (List.filter (fun i -> i mod conns = c) (List.init n Fun.id))

let open_req shape i =
  mk i (P.Open { session = Some shape.sessions.(i); layer = shape.layer; eol = None; resume = false })

let resume_req shape i =
  mk i (P.Open { session = Some shape.sessions.(i); layer = shape.layer; eol = None; resume = true })

let signature_req shape i = mk i (P.Signature { session = shape.sessions.(i) })

(* A stream is an endless per-connection request source. *)
type stream = unit -> req

(* Cycle a precomputed array forever.  Every step the arrays hold ends
   in the session's starting state, so wrapping is consistent. *)
let cycle arr =
  let k = ref 0 in
  fun () ->
    let r = arr.(!k) in
    k := (!k + 1) mod Array.length arr;
    r

let precision = "Precision"
let idct_merits = [ "latency-ns"; "area-um2" ]

(* fleet-idct: each session step is set Precision / candidates max=16 /
   ranges / signature / retract over a seeded session permutation. *)
let idct_step sessions rng i =
  let s = sessions.(i) in
  let v = 8 + Rng.int rng 9 in
  [
    mk i (P.Set { session = s; name = precision; value = Value.int v; decide = false });
    mk i (P.Candidates { session = s; max = Some 16 });
    mk i (P.Ranges { session = s; merits = Some idct_merits });
    mk i (P.Signature { session = s });
    mk i (P.Retract { session = s; name = precision });
  ]

(* Steps over a seeded visiting order of the connection's sessions: two
   seeded orders, concatenated, then cycled. *)
let stepped_stream ~step ~sessions ~seed ~conns ~c () =
  let rng = Rng.derive seed c in
  let mine = owned ~conns ~c (Array.length sessions) in
  let pass () =
    let order = Array.copy mine in
    Rng.shuffle rng order;
    List.concat_map (step sessions rng) (Array.to_list order)
  in
  let a = pass () in
  let b = pass () in
  cycle (Array.of_list (a @ b))

(* explore-gen100k: a seeded decision walk per session over the
   generated layer's four budget requirements.  The walk is a sequence
   of episodes: bind every budget (seeded order, values from a small
   pool), then retract them all (another seeded order).  Every seed
   walks the same profile of bound-budget counts, so a run's work does
   not depend on its seed; the pool is sized so that about half of the
   decisions reach a state the worker has not swept yet.  Each decision
   is followed by candidates max=16 and ranges over two merits. *)
let gen_budgets = 4
let gen_pool = [| 95.0; 105.0; 115.0; 125.0; 135.0 |]
let gen_merits = [ "m0"; "m1" ]

let gen_stream ~sessions ~seed ~conns ~c =
  let mine = owned ~conns ~c (Array.length sessions) in
  let walks = Array.map (fun i -> (i, Rng.derive seed (100 + i), Queue.create ())) mine in
  let episode rng s =
    let order () =
      let a = Array.init gen_budgets Fun.id in
      Rng.shuffle rng a;
      Array.to_list a
    in
    let name b = Ds_domains.Generator.budget_name b in
    let binds =
      List.map
        (fun b ->
          let v = gen_pool.(Rng.int rng (Array.length gen_pool)) in
          P.Set { session = s; name = name b; value = Value.real v; decide = false })
        (order ())
    in
    binds @ List.map (fun b -> P.Retract { session = s; name = name b }) (order ())
  in
  let q = Queue.create () in
  let turn = ref 0 in
  let refill () =
    let i, rng, pending = walks.(!turn) in
    turn := (!turn + 1) mod Array.length walks;
    let s = sessions.(i) in
    if Queue.is_empty pending then List.iter (fun d -> Queue.add d pending) (episode rng s);
    List.iter
      (fun r -> Queue.add (mk i r) q)
      [
        Queue.pop pending;
        P.Candidates { session = s; max = Some 16 };
        P.Ranges { session = s; merits = Some gen_merits };
      ]
  in
  fun () ->
    if Queue.is_empty q then refill ();
    Queue.pop q

type workload = {
  name : string;
  shape : shape;
  stream : seed:int -> c:int -> stream;
}

let fleet_idct =
  let sessions = idct_sessions "i" 4096 in
  let shape = { layer = "idct"; sessions } in
  {
    name = "fleet-idct";
    shape;
    stream = (fun ~seed ~c -> stepped_stream ~step:idct_step ~sessions ~seed ~conns:2 ~c ());
  }

let explore_gen100k =
  let sessions = Array.init 8 (fun i -> Printf.sprintf "g%d" i) in
  let shape = { layer = "gen100k"; sessions } in
  { name = "explore-gen100k"; shape; stream = (fun ~seed ~c -> gen_stream ~sessions ~seed ~conns:2 ~c) }

let workloads = [ fleet_idct; explore_gen100k ]
let find name = List.find_opt (fun w -> w.name = name) workloads

(* The first [n] lines of every connection's stream, newline-joined —
   what the determinism self-test compares. *)
let prefix w ~seed ~n =
  let buf = Buffer.create (n * 64) in
  for c = 0 to conns - 1 do
    let next = w.stream ~seed ~c in
    for _ = 1 to n do
      Buffer.add_string buf (next ()).line;
      Buffer.add_char buf '\n'
    done
  done;
  Buffer.contents buf
