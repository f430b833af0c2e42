(* Process accounting from /proc: CPU ticks, peak RSS, child discovery,
   and the on-disk footprint of a state directory. *)

let read_file path =
  match open_in path with
  | ic ->
    let b = Buffer.create 1024 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    close_in ic;
    Some (Buffer.contents b)
  | exception Sys_error _ -> None

(* Fields of /proc/<pid>/stat after the parenthesised command name
   (which may itself contain spaces): index 0 is the state. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> None
    | Some i ->
      Some
        (Array.of_list
           (List.filter (( <> ) "")
              (String.split_on_char ' ' (String.trim (String.sub s (i + 1) (String.length s - i - 1)))))))

(* Linux reports utime/stime in USER_HZ ticks, fixed at 100 per second
   by the kernel ABI. *)
let ticks_per_s = 100.0

(* utime + stime in seconds, or [None] once the process is gone. *)
let cpu_s pid =
  match stat_fields pid with
  | Some f when Array.length f > 12 ->
    Some (float_of_string (f.(11)) +. float_of_string f.(12)) |> Option.map (fun t -> t /. ticks_per_s)
  | _ -> None

let state pid = match stat_fields pid with Some f when Array.length f > 0 -> Some f.(0) | _ -> None
let ppid pid = match stat_fields pid with Some f when Array.length f > 1 -> int_of_string_opt f.(1) | _ -> None

(* Ended: gone, or a zombie nobody has reaped yet. *)
let ended pid = match state pid with None | Some "Z" | Some "X" -> true | Some _ -> false

let status_kb pid key =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ k; v ] when k = key -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v)) with
          | n :: _ -> Option.value (int_of_string_opt n) ~default:acc
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' s)

let vmhwm_mb pid = float_of_int (status_kb pid "VmHWM") /. 1024.0

let children pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map int_of_string_opt
  |> List.filter (fun p -> ppid p = Some pid && not (ended p))
  |> List.sort compare

(* Bytes in regular files under [dir] whose name satisfies [keep]. *)
let rec dir_bytes ?(keep = fun _ -> true) dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
    Array.fold_left
      (fun acc n ->
        let p = Filename.concat dir n in
        match Unix.lstat p with
        | { Unix.st_kind = Unix.S_DIR; _ } -> acc + dir_bytes ~keep p
        | { Unix.st_kind = Unix.S_REG; st_size; _ } when keep n -> acc + st_size
        | _ -> acc
        | exception Unix.Unix_error _ -> acc)
      0 names

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* CPU of the benchmark process itself (user + sys, every thread). *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Flush dirty pages before a measured phase, so writeback left behind
   by set-up (thousands of journal files created and deleted) does not
   land inside the measurement.  Best effort: a missing [sync] binary
   just skips it. *)
let sync_disks () =
  match Unix.create_process "sync" [| "sync" |] Unix.stdin Unix.stdout Unix.stderr with
  | pid -> ignore (Unix.waitpid [] pid)
  | exception Unix.Unix_error _ -> ()

(* Jiffies the hypervisor stole from this VM, and all jiffies, summed
   over every CPU (first line of /proc/stat). *)
let host_steal () =
  match read_file "/proc/stat" with
  | None -> (0, 0)
  | Some s -> (
    let line = match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: f ->
      let v = List.filteri (fun i _ -> i < 8) (List.map (fun x -> Option.value (int_of_string_opt x) ~default:0) f) in
      ((match List.nth_opt v 7 with Some x -> x | None -> 0), List.fold_left ( + ) 0 v)
    | _ -> (0, 0))
