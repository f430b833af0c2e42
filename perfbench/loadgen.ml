(* The load generator: one thread running a select loop over every
   connection's socket.

   Connections are opened with {!Ds_serve.Client.connect}; the loop then
   owns the descriptor ({!Ds_serve.Client.fd}) so it can keep many
   requests in flight and timestamp each reply line as it arrives —
   something the lockstep [Client.pipeline] cannot do.  The protocol
   guarantees one reply line per request line, in order, so a FIFO of
   in-flight requests pairs every reply with its request.

   The loop is closed: [depth] requests in flight per connection, a new
   one sent for each reply; latency runs from the actual send. *)

module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
  let length v = v.n
end

type stats = {
  rlat : Vec.t;  (** µs *)
  wlat : Vec.t;
  rdone : Vec.t;  (** completion times (s) of [rlat]'s samples, same order *)
  wdone : Vec.t;
  mutable sent : int;
  mutable ok : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few failure lines *)
}

let new_stats () =
  {
    rlat = Vec.create ();
    wlat = Vec.create ();
    rdone = Vec.create ();
    wdone = Vec.create ();
    sent = 0;
    ok = 0;
    failed = 0;
    errors = [];
  }

let matches_at s i sub =
  let m = String.length sub in
  i + m <= String.length s
  &&
  let rec go k = k = m || (s.[i + k] = sub.[k] && go (k + 1)) in
  go 0

let contains s sub =
  let rec go i = i + String.length sub <= String.length s && (matches_at s i sub || go (i + 1)) in
  go 0

(* A reply is a success when it is [ok:true] and, for a batch, no
   sub-result failed.  JSON escapes quotes inside strings, so the
   literal ["ok":false] can only be a reply header. *)
let reply_ok (r : Reqgen.req) line =
  matches_at line 0 "{\"ok\":true"
  && match r.preq with Ds_serve.Protocol.Batch _ -> not (contains line "\"ok\":false") | _ -> true

let fail st msg =
  st.failed <- st.failed + 1;
  if List.length st.errors < 5 then st.errors <- msg :: st.errors

(* Outgoing bytes not yet accepted by the (non-blocking) socket. *)
type outq = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let enqueue q s =
  let n = String.length s + 1 in
  if q.off > 0 && q.off = q.len then begin
    q.off <- 0;
    q.len <- 0
  end;
  if q.len + n > Bytes.length q.buf then begin
    let live = q.len - q.off in
    let b = Bytes.create (max (2 * Bytes.length q.buf) (live + n)) in
    Bytes.blit q.buf q.off b 0 live;
    q.buf <- b;
    q.off <- 0;
    q.len <- live
  end;
  Bytes.blit_string s 0 q.buf q.len (n - 1);
  Bytes.set q.buf (q.len + n - 1) '\n';
  q.len <- q.len + n

let flush fd q =
  if q.len > q.off then
    match Unix.single_write fd q.buf q.off (q.len - q.off) with
    | n -> q.off <- q.off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let drain_grace = 30.0

(* One connection's state inside the event loop. *)
type conn = {
  fd : Unix.file_descr;
  next : Reqgen.stream;
  inflight : (Reqgen.req * float * int) Queue.t;  (** req, sent, rid *)
  q : outq;
  partial : Buffer.t;
  rid0 : int;
  mutable k : int;  (** requests sent *)
  mutable dead : bool;
}

type result = {
  stats : stats;  (** merged over connections *)
  t0 : float;  (** start of the sending window *)
  duration : float;  (** the sending window *)
}

(* Drive every connection from one thread, [depth] requests in flight
   on each, until [duration] has passed or [limit] requests have been
   sent, then wait for the replies still in flight.  [on_ack] sees every
   successfully answered request; [span] names the benchmark span
   recorded per round trip.  A single thread keeps the generator off the
   runtime lock that two OCaml threads would contend for. *)
let run ?span ?(limit = max_int) ~(conns : Unix.file_descr array)
    ~(streams : Reqgen.stream array) ~depth ~duration ~on_ack () =
  let st = new_stats () in
  let t0 = Unix.gettimeofday () +. 0.002 in
  let stop_at = t0 +. duration in
  let cs =
    Array.mapi
      (fun c fd ->
        Unix.set_nonblock fd;
        {
          fd;
          next = streams.(c);
          inflight = Queue.create ();
          q = { buf = Bytes.create 65536; off = 0; len = 0 };
          partial = Buffer.create 4096;
          rid0 = c * 1_000_000_000;
          k = 0;
          dead = false;
        })
      conns
  in
  let rbuf = Bytes.create 65536 in
  let send c now =
    let r = c.next () in
    enqueue c.q r.Reqgen.line;
    Queue.add (r, now, c.rid0 + c.k) c.inflight;
    c.k <- c.k + 1;
    st.sent <- st.sent + 1
  in
  let on_line c now line =
    match Queue.take_opt c.inflight with
    | None -> fail st ("unsolicited reply: " ^ line)
    | Some (r, sent, rid) ->
      Option.iter (fun name -> Spans.add ~rid name sent now) span;
      if reply_ok r line then begin
        st.ok <- st.ok + 1;
        let lat, fin =
          if r.Reqgen.cls = Reqgen.Write then (st.wlat, st.wdone) else (st.rlat, st.rdone)
        in
        Vec.push lat ((now -. sent) *. 1e6);
        Vec.push fin now;
        on_ack r
      end
      else fail st (r.Reqgen.line ^ " -> " ^ line)
  in
  let lost c e =
    fail st ("transport: " ^ Unix.error_message e);
    c.dead <- true
  in
  let read_some c now =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> c.dead <- true
    | got ->
      let start = ref 0 in
      for i = 0 to got - 1 do
        if Bytes.get rbuf i = '\n' then begin
          let line =
            if Buffer.length c.partial = 0 then Bytes.sub_string rbuf !start (i - !start)
            else begin
              Buffer.add_subbytes c.partial rbuf !start (i - !start);
              let l = Buffer.contents c.partial in
              Buffer.clear c.partial;
              l
            end
          in
          on_line c now line;
          start := i + 1
        end
      done;
      if !start < got then Buffer.add_subbytes c.partial rbuf !start (got - !start)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> lost c e
  in
  let give_up = stop_at +. drain_grace in
  let finished = ref false in
  while not !finished do
    let now = Unix.gettimeofday () in
    Array.iter
      (fun c ->
        if not c.dead then begin
          if now < stop_at && st.sent < limit then
            while Queue.length c.inflight < depth && st.sent < limit do
              send c now
            done;
          try flush c.fd c.q with Unix.Unix_error (e, _, _) -> lost c e
        end)
      cs;
    let idle c = c.dead || (Queue.is_empty c.inflight && (now >= stop_at || st.sent >= limit)) in
    if now > give_up || Array.for_all idle cs then finished := true
    else begin
      let live = List.filter (fun c -> not c.dead) (Array.to_list cs) in
      let rd = List.map (fun c -> c.fd) live in
      let wr = List.filter_map (fun c -> if c.q.len > c.q.off then Some c.fd else None) live in
      match Unix.select rd wr [] 0.05 with
      | ready, _, _ ->
        let t = Unix.gettimeofday () in
        List.iter (fun c -> if List.memq c.fd ready then read_some c t) live
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  (* whatever is still in flight failed: the peer died or stalled *)
  Array.iter
    (fun c ->
      Queue.iter (fun _ -> fail st "no reply (transport lost or drain timeout)") c.inflight;
      Unix.clear_nonblock c.fd)
    cs;
  { stats = st; t0; duration }

let percentile arr q =
  let n = Array.length arr in
  if n = 0 then 0.0
  else begin
    let a = Array.copy arr in
    Array.sort compare a;
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))
  end

(* Completions per second in each whole half-second slice of the
   sending window, and their median: a momentary stall (a neighbour
   process, a GC pause) moves one slice, not the reported rate. *)
let bin_rates r =
  let bin = 0.5 in
  let nb = max 1 (int_of_float (r.duration /. bin)) in
  let counts = Array.make nb 0 in
  let count t =
    let i = int_of_float ((t -. r.t0) /. bin) in
    if i >= 0 && i < nb then counts.(i) <- counts.(i) + 1
  in
  Array.iter count (Vec.to_array r.stats.rdone);
  Array.iter count (Vec.to_array r.stats.wdone);
  Array.map (fun c -> float_of_int c /. bin) counts
