(* Engine/cache format version.  Part of every cache key: bump it when
   the check semantics, the obligation encoding, or the marshalled
   outcome shape changes, and every stale entry silently misses. *)
let version = "mirverif-engine-2"

(* The marshalled payload is additionally guarded by a magic string so
   a file from a different OCaml version (incompatible Marshal format)
   or a truncated write degrades to a miss, never a crash. *)
let magic = "MVEC1\n" ^ Sys.ocaml_version ^ "\n"

(* Two storage tiers share the key space:

   - pack files ([*.pack]): one file per run, appended by {!flush} from
     the outcomes {!stash}ed during that run, loaded wholesale into the
     in-memory index at {!create}.  This is the pool's path — a cold
     run of the full plan costs one file write, not one per obligation.
   - legacy per-entry files ([<key>.proof]): the write-through path of
     {!store}, still read (and still evicted when corrupt) so caches
     written by older engines stay warm. *)
type t = {
  dir : string;
  mu : Mutex.t;
  index : (string, Obligation.outcome) Hashtbl.t;  (* from pack files *)
  pending : (string, Obligation.outcome) Hashtbl.t;  (* stashed, not yet flushed *)
  packs : (string, unit) Hashtbl.t;
      (* pack basenames already merged into [index] (our own flushes
         included), so {!refresh} loads only packs other processes
         wrote since; guarded by mu *)
  mutable failures : (string * string) list;  (* (op, message), newest first; guarded by mu *)
  mutable chaos : Engine_chaos.t option;
}

(* Write failures degrade the cache (the run stays correct, the next
   run just recomputes), so they must not kill the run — but they must
   not vanish either: each one is recorded here and the driver surfaces
   them as trace events and a summary counter.  Out_of_memory and
   Stack_overflow are not IO weather and are never absorbed. *)
let fatal = function Out_of_memory | Stack_overflow -> true | _ -> false

let record_failure_locked t op exn =
  t.failures <- (op, Printexc.to_string exn) :: t.failures

let record_failure t op exn =
  Mutex.lock t.mu;
  record_failure_locked t op exn;
  Mutex.unlock t.mu

let write_failures t =
  Mutex.lock t.mu;
  let fs = List.rev t.failures in
  Mutex.unlock t.mu;
  fs

let write_failure_count t = List.length (write_failures t)

let set_chaos t ch = t.chaos <- Some ch

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Read a pack wholesale.  A pack that fails to parse can never become
   valid again (keys inside it encode version and fingerprint), so it
   is evicted whole; a pack that vanished between readdir and open —
   another process evicting concurrently — is a plain miss.  Renames
   into place are atomic, so any pack we do open is complete. *)
let read_pack file : (string * Obligation.outcome) array option =
  let evict () =
    (try Sys.remove file with Sys_error _ -> ());
    None
  in
  match
    let ic = open_in_bin file in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let m = really_input_string ic (String.length magic) in
        if not (String.equal m magic) then None
        else
          let (entries : (string * Obligation.outcome) array) = Marshal.from_channel ic in
          Some entries)
  with
  | Some entries -> Some entries
  | None -> evict ()
  | exception Sys_error _ -> None  (* vanished mid-scan: concurrent eviction *)
  | exception _ -> evict ()

let pack_basenames dir =
  match Sys.readdir dir with
  | files -> List.filter (fun f -> Filename.check_suffix f ".pack") (Array.to_list files)
  | exception Sys_error _ -> []

let create ~dir =
  if String.trim dir = "" then
    invalid_arg "Cache.create: empty cache directory (pass --cache DIR)";
  (match mkdir_p dir with
  | () -> ()
  | exception Unix.Unix_error (e, _, arg) ->
      invalid_arg
        (Printf.sprintf "Cache.create: cannot create %S (%s: %s)" dir
           (Unix.error_message e) arg));
  let index = Hashtbl.create 256 in
  let packs = Hashtbl.create 16 in
  List.iter
    (fun f ->
      match read_pack (Filename.concat dir f) with
      | Some entries ->
          Array.iter (fun (k, o) -> Hashtbl.replace index k o) entries;
          Hashtbl.replace packs f ()
      | None -> ())
    (pack_basenames dir);
  { dir; mu = Mutex.create (); index; pending = Hashtbl.create 64; packs;
    failures = []; chaos = None }

(* Pick up packs flushed by other processes since [create] (or the last
   refresh): the fleet's warm-sharing path.  Pack reads happen outside
   the mutex (pure IO on immutable files); only the merge is locked.
   Returns the number of new packs merged. *)
let refresh t =
  Mutex.lock t.mu;
  let seen = Hashtbl.copy t.packs in
  Mutex.unlock t.mu;
  let fresh =
    List.filter_map
      (fun f ->
        if Hashtbl.mem seen f then None
        else
          match read_pack (Filename.concat t.dir f) with
          | Some entries -> Some (f, entries)
          | None -> None)
      (pack_basenames t.dir)
  in
  Mutex.lock t.mu;
  List.iter
    (fun (f, entries) ->
      Array.iter (fun (k, o) -> Hashtbl.replace t.index k o) entries;
      Hashtbl.replace t.packs f ())
    fresh;
  Mutex.unlock t.mu;
  List.length fresh

let key (o : Obligation.t) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ version; o.Obligation.phase; o.Obligation.id; o.Obligation.fingerprint ]))

let path t k = Filename.concat t.dir (k ^ ".proof")

let find_legacy t k : Obligation.outcome option =
  let file = path t k in
  (* a stale or corrupt entry can never become valid again — its key
     already encodes version and fingerprint — so evict it on the way
     out; otherwise every warm run re-reads and re-rejects it *)
  let evict () = (try Sys.remove file with Sys_error _ -> ()); None in
  if not (Sys.file_exists file) then None
  else
    match
      let ic = open_in_bin file in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          let m = really_input_string ic (String.length magic) in
          if not (String.equal m magic) then None
          else
            let (outcome : Obligation.outcome) = Marshal.from_channel ic in
            Some outcome)
    with
    | Some outcome -> Some outcome
    | None -> evict ()
    | exception _ -> evict ()

let find t (o : Obligation.t) : Obligation.outcome option =
  let k = key o in
  Mutex.lock t.mu;
  let packed =
    match Hashtbl.find_opt t.pending k with
    | Some _ as r -> r
    | None -> Hashtbl.find_opt t.index k
  in
  Mutex.unlock t.mu;
  match packed with
  | Some _ as r ->
      (* defined tier precedence: the pack always wins.  A key present
         in both tiers means a legacy [.proof] file survived a later
         packed write of the same (version+fingerprint) outcome — it
         can only be equal or staler, so evict it rather than let a
         future pack loss resurrect it *)
      let file = path t k in
      if Sys.file_exists file then (try Sys.remove file with Sys_error _ -> ());
      r
  | None -> find_legacy t k

let stash t (o : Obligation.t) (outcome : Obligation.outcome) =
  Mutex.lock t.mu;
  Hashtbl.replace t.pending (key o) outcome;
  Mutex.unlock t.mu

(* Serialize pack flushes across processes sharing the directory with
   an advisory [lockf] on [<dir>/.lock].  Readers never take it — the
   rename into place is atomic, so a pack is whole or absent from their
   view — but writers do, so two workers flushing at once cannot
   interleave their temp-file creation and chaos-teardown windows.  A
   lock failure (e.g. a filesystem without lockf) degrades to the
   unlocked-but-still-atomic path rather than losing the flush. *)
let with_flush_lock t f =
  match
    Unix.openfile (Filename.concat t.dir ".lock")
      [ Unix.O_CREAT; Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644
  with
  | exception Unix.Unix_error _ -> f ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let locked =
            match Unix.lockf fd Unix.F_LOCK 0 with
            | () -> true
            | exception Unix.Unix_error _ -> false
          in
          Fun.protect
            ~finally:(fun () ->
              if locked then
                try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
            f)

let flush t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      if Hashtbl.length t.pending > 0 then begin
        let entries =
          Array.of_seq (Seq.map (fun (k, o) -> (k, o)) (Hashtbl.to_seq t.pending))
        in
        (try
           with_flush_lock t (fun () ->
               (* write-then-rename under a per-run unique name: concurrent
                  runs each produce their own pack, readers see whole files *)
               let tmp = Filename.temp_file ~temp_dir:t.dir "pack-" ".tmp" in
               let oc = open_out_bin tmp in
               Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
                   output_string oc magic;
                   Marshal.to_channel oc entries []);
               let pack_base =
                 Filename.chop_suffix (Filename.basename tmp) ".tmp" ^ ".pack"
               in
               let pack = Filename.concat t.dir pack_base in
               Sys.rename tmp pack;
               Hashtbl.replace t.packs pack_base ();
               Option.iter (fun ch -> Engine_chaos.tear_pack ch ~path:pack) t.chaos)
         with e when not (fatal e) -> record_failure_locked t "flush" e);
        Array.iter (fun (k, o) -> Hashtbl.replace t.index k o) entries;
        Hashtbl.reset t.pending
      end)

let store t (o : Obligation.t) (outcome : Obligation.outcome) =
  try
    let file = path t (key o) in
    (* write-then-rename: concurrent workers may store under the same
       key; each writes its own temp file and the rename is atomic *)
    let tmp = Filename.temp_file ~temp_dir:t.dir ".proof-" ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        output_string oc magic;
        Marshal.to_channel oc outcome []);
    Sys.rename tmp file;
    Option.iter (fun ch -> Engine_chaos.truncate_proof ch ~path:file) t.chaos
  with e when not (fatal e) -> record_failure t "store" e

let entry_count t =
  Mutex.lock t.mu;
  let keys = Hashtbl.create 256 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t.index;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t.pending;
  Mutex.unlock t.mu;
  if Sys.file_exists t.dir && Sys.is_directory t.dir then
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".proof" then
          Hashtbl.replace keys (Filename.chop_suffix f ".proof") ())
      (Sys.readdir t.dir);
  Hashtbl.length keys
