(* Spans around the calls the benchmark makes into each layer: name,
   request id, parent, start, end and the words the calling domain
   allocated.  Kept in memory, one process per request stream, and
   written out as Chrome trace-event JSON when the run ends.  Disabled,
   [with_] is a direct call: that is how the trace measures its own
   overhead. *)

type t = {
  id : int;
  parent : int;  (* -1 at a root *)
  name : string;
  req : int;
  t0 : float;
  t1 : float;
  alloc_words : float;
}

let enabled = ref true
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

(* exact, but for the calling domain only *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* every domain's allocation, including domains that have ended (the
   pool's workers, after the join); sampled at minor collections, so
   good to a minor heap *)
let program_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576.0

let with_ ~req name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let a0 = allocated_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      open_ids := List.tl !open_ids;
      recorded :=
        { id; parent; name; req; t0; t1; alloc_words = allocated_words () -. a0 }
        :: !recorded
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let take () =
  let r = List.rev !recorded in
  recorded := [];
  r

let duration s = s.t1 -. s.t0

(* A span's self time: its duration minus what its direct children
   cover. *)
let self_time spans s =
  duration s
  -. List.fold_left
       (fun acc c -> if c.parent = s.id then acc +. duration c else acc)
       0.0 spans

let total spans name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. duration s else acc)
    0.0 spans

let alloc_mb spans names =
  mb
    (List.fold_left
       (fun acc s -> if List.mem s.name names then acc +. s.alloc_words else acc)
       0.0 spans)

(* Chrome trace events ("X" = complete event, times in microseconds),
   one process per workload and one thread per request.  Only the first
   1000 requests: a served run answers tens of thousands. *)
let chrome_events ~pid spans =
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  List.filter_map
    (fun s ->
      if s.req >= 1000 then None
      else
        Some
          (Engine.Jsonx.Obj
             [
               ("name", Engine.Jsonx.Str s.name);
               ("cat", Str "e2e");
               ("ph", Str "X");
               ("ts", Float ((s.t0 -. origin) *. 1e6));
               ("dur", Float (duration s *. 1e6));
               ("pid", Int pid);
               ("tid", Int s.req);
               ("args", Obj [ ("request", Int s.req) ]);
             ]))
    spans
