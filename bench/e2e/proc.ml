(* Processes under test: spawn with captured stdout, reap with resource
   usage, and read the CPU of live processes from /proc. *)

external wait4 : int -> int * int * float * float = "e2e_wait4"
external clk_tck : unit -> int = "e2e_clk_tck"

type reaped = { code : int; maxrss_kb : int; cpu_s : float }

let reap pid =
  let code, maxrss_kb, utime, stime = wait4 pid in
  { code; maxrss_kb; cpu_s = utime +. stime }

let now = Unix.gettimeofday

let rec restart_on_eintr f x =
  try f x with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f x

let read_fd fd =
  let buf = Buffer.create 8192 and chunk = Bytes.create 65536 in
  let rec go () =
    match restart_on_eintr (Unix.read fd chunk 0) (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* Run [bin args] to completion: (stdout, reaped, spawn-to-exit seconds).
   stderr goes to [err]. *)
let run_capture ~bin ~err args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin wr err in
  Unix.close wr;
  let out = Fun.protect ~finally:(fun () -> Unix.close rd) (fun () -> read_fd rd) in
  let r = reap pid in
  (out, r, now () -. t0)

(* Run [f] in a forked child and marshal its result back.  The child
   starts from this process's state: memos this process never filled
   are cold there, and its peak RSS is this process's, not whatever this
   process grows to later (a spawned child's ru_maxrss includes the RSS
   of the process that spawned it). *)
let in_child (f : unit -> 'a) : ('a, string) result =
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      let r : ('a, string) result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let s = Fun.protect ~finally:(fun () -> Unix.close rd) (fun () -> read_fd rd) in
      ignore (restart_on_eintr (Unix.waitpid []) pid);
      match (Marshal.from_string s 0 : ('a, string) result) with
      | r -> r
      | exception _ -> Error "child process died")

(* user+system seconds a live process has used so far: fields 14 and 15
   of /proc/<pid>/stat, counted after the parenthesised command name *)
let cpu_of_pid =
  let tck = lazy (float_of_int (clk_tck ())) in
  fun pid ->
    match read_file (Printf.sprintf "/proc/%d/stat" pid) with
    | exception Sys_error _ -> 0.0
    | s ->
        let close = String.rindex s ')' in
        let fields =
          String.split_on_char ' '
            (String.sub s (close + 2) (String.length s - close - 2))
        in
        (float_of_string (List.nth fields 11) +. float_of_string (List.nth fields 12))
        /. Lazy.force tck

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec at i = i + m <= n && (matches i 0 || at (i + 1)) in
  at 0
