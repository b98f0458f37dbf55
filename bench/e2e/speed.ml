(* The host's speed, measured next to the verdicts.

   On a guest of a shared host the same CPU-bound work takes up to 1.8
   times as long in a slow spell as in a fast one, and spells last from
   seconds to minutes, so a run's raw times move with the host more than
   with the code (README.md, Observations).  A probe is a fixed piece of
   OCaml work -- allocation, a linked structure the major GC traces, a
   balanced map and string hashing -- that this benchmark runs between
   verdicts.  Its time divided by [reference_s] is the host's slowdown,
   and each stretch of time up to the next probe is divided by it.  A
   run's median slowdown would not do: the mean of verdict times that
   straddle a change of spell is not scaled right by the median probe,
   and throughput read 10 % low in runs that were mostly fast.

   The probe runs in a helper process forked at start-up, so its heap
   never counts in the peak RSS of a process this one spawns. *)

(* the probe's median time on the host the bounds were set on: times
   divided by the slowdown are seconds on that host *)
let reference_s = 0.040

(* the verdict time after which the next probe is due *)
let interval_s = 0.2

type node = { v : int; next : node option }

let piece () =
  let l = ref [] in
  for i = 1 to 150_000 do
    l := (i, string_of_int (i land 1023)) :: (if i land 255 = 0 then [] else !l)
  done;
  let keep = ref [] in
  for r = 1 to 4 do
    let rec build n next = if n = 0 then next else build (n - 1) (Some { v = n * r; next }) in
    keep := build 60_000 None :: (match !keep with a :: b :: _ -> [ a; b ] | k -> k)
  done;
  let module M = Map.Make (Int) in
  let st = Random.State.make [| 7 |] in
  let m = ref M.empty in
  for i = 0 to 10_000 do
    m := M.add (Random.State.bits st) i !m
  done;
  let h = Hashtbl.create 1024 in
  M.iter (fun k v -> Hashtbl.replace h (string_of_int (k land 0xffff)) v) !m;
  List.length !l + List.length !keep + Hashtbl.length h

type t = {
  pid : int;
  req : out_channel;
  resp : in_channel;
  mutable samples : float list;  (** slowdowns since [reset], newest first *)
  mutable spent : float;  (** seconds spent probing since [reset] *)
  mutable last : float;  (** when the last probe ended *)
  mutable closed_s : float;
      (** reference-host seconds of the stretches between probes since
          [reset], the probes left out *)
}

(* the helper: one probe per byte read, its time written back *)
let serve req resp =
  let rec loop () =
    match input_char req with
    | exception End_of_file -> ()
    | _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (piece ()));
        Printf.fprintf resp "%.9f\n%!" (Unix.gettimeofday () -. t0);
        loop ()
  in
  loop ()

let start () =
  let req_rd, req_wr = Unix.pipe ~cloexec:true () in
  let resp_rd, resp_wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      Unix.close req_wr;
      Unix.close resp_rd;
      (try serve (Unix.in_channel_of_descr req_rd) (Unix.out_channel_of_descr resp_wr)
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close req_rd;
      Unix.close resp_wr;
      {
        pid;
        req = Unix.out_channel_of_descr req_wr;
        resp = Unix.in_channel_of_descr resp_rd;
        samples = [];
        spent = 0.0;
        last = Unix.gettimeofday ();
        closed_s = 0.0;
      }

(* Ends the helper, which exits when its request pipe closes. *)
let stop t =
  close_out_noerr t.req;
  close_in_noerr t.resp;
  ignore (Proc.restart_on_eintr (Unix.waitpid []) t.pid)

(* the slowdown of the latest probe since [reset]; 1 before the first *)
let current t = match t.samples with s :: _ -> s | [] -> 1.0

let reset t =
  t.samples <- [];
  t.spent <- 0.0;
  t.last <- Unix.gettimeofday ();
  t.closed_s <- 0.0

let probe t =
  let t0 = Unix.gettimeofday () in
  t.closed_s <- t.closed_s +. ((t0 -. t.last) /. current t);
  output_char t.req 'p';
  flush t.req;
  let s = float_of_string (input_line t.resp) in
  t.samples <- (s /. reference_s) :: t.samples;
  t.last <- Unix.gettimeofday ();
  t.spent <- t.spent +. (t.last -. t0)

(* a probe when none has run since [reset] or [interval_s] has passed
   since the last one; called before a verdict, so the verdict falls in
   the stretch the probe opens *)
let due t =
  if t.samples = [] || Unix.gettimeofday () -. t.last >= interval_s then probe t

(* [s] seconds measured since the latest probe, in reference-host seconds *)
let host t s = s /. current t

(* reference-host seconds since [reset], the probes left out: the wall
   time of a section that probes only through [due] and [probe] *)
let elapsed t = t.closed_s +. host t (Unix.gettimeofday () -. t.last)

(* the median slowdown since [reset], reported beside the results *)
let slowdown t = if t.samples = [] then 1.0 else Stats.median t.samples
