(* Engine/cache format version.  Part of every cache key: bump it when
   the check semantics, the obligation encoding, or the marshalled
   outcome shape changes, and every stale entry silently misses. *)
let version = "mirverif-engine-2"

(* A pack file is [magic], the MD5 of the payload, then the payload: the
   marshalled entry array.  The magic carries the OCaml version (an
   incompatible Marshal format) and the digest catches a torn or
   corrupt payload, so either degrades to a miss before anything is
   unmarshalled — never a crash or a wrong outcome. *)
let magic = "MVEC2\n" ^ Sys.ocaml_version ^ "\n"

(* One pack file per run, appended by {!flush} from the outcomes
   {!stash}ed during that run and loaded wholesale into the in-memory
   index at {!create}: a cold run of the full plan costs one file
   write, not one per obligation. *)
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

(* Read a pack wholesale.  A pack that fails its magic or digest check,
   is short, or does not unmarshal can never become valid again (keys
   inside it encode version and fingerprint), so it is evicted whole; a
   pack that vanished between readdir and open — another process
   evicting concurrently — is a plain miss.  Renames into place are
   atomic, so a pack we open was written whole. *)
let read_pack file : (string * Obligation.outcome) array option =
  let evict () =
    (try Sys.remove file with Sys_error _ -> ());
    None
  in
  let payload = String.length magic + 16 in
  match
    let ic = open_in_bin file in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None  (* vanished mid-scan: concurrent eviction *)
  | exception End_of_file -> evict ()
  | contents
    when String.length contents > payload
         && String.starts_with ~prefix:magic contents
         && String.equal
              (String.sub contents (String.length magic) 16)
              (Digest.substring contents payload (String.length contents - payload))
    -> (
      match (Marshal.from_string contents payload : (string * Obligation.outcome) array) with
      | entries -> Some entries
      | exception _ -> evict ())
  | _ -> evict ()

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

let find t (o : Obligation.t) : Obligation.outcome option =
  let k = key o in
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.pending k with
    | Some _ as r -> r
    | None -> Hashtbl.find_opt t.index k
  in
  Mutex.unlock t.mu;
  r

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
               let payload = Marshal.to_string entries [] in
               Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
                   output_string oc magic;
                   output_string oc (Digest.string payload);
                   output_string oc payload);
               let pack_base =
                 Filename.chop_suffix (Filename.basename tmp) ".tmp" ^ ".pack"
               in
               let pack = Filename.concat t.dir pack_base in
               Sys.rename tmp pack;
               Hashtbl.replace t.packs pack_base ();
               Option.iter (fun ch -> Engine_chaos.tear_pack ch ~path:pack) t.chaos)
         with e when not (fatal e) ->
           t.failures <- ("flush", Printexc.to_string e) :: t.failures);
        Array.iter (fun (k, o) -> Hashtbl.replace t.index k o) entries;
        Hashtbl.reset t.pending
      end)

let entry_count t =
  Mutex.lock t.mu;
  let n =
    Hashtbl.fold
      (fun k _ n -> if Hashtbl.mem t.index k then n else n + 1)
      t.pending (Hashtbl.length t.index)
  in
  Mutex.unlock t.mu;
  n
