(* The --serve daemon: a Unix-socket dispatcher in front of a fleet of
   forked verification workers.

   Topology:

     clients ──frames──▶ dispatcher (select loop, no verification)
                            │  one request per idle worker, in
                            │  arrival order, forwarded as one raw frame
                            ▼
               worker 0 … worker N-1   (forked processes, own OCaml
                            │           runtime and GC, resident
                            │           session memos)
                            ▼
               shared --cache directory (pack files, advisory-locked
               flushes; Cache.refresh before each request's run)

   The dispatcher owns every client connection and never blocks on
   verification, so a worker death cannot drop a response: the victim's
   in-flight request is re-queued at the front and a replacement worker
   is forked (the process-level analogue of the pool's worker-respawn
   supervision).  Respawning is bounded by [max_deaths]: a request whose
   workers died that many times is answered with an error, and a slot
   whose worker died that many times in a row without a request (say,
   on an unusable --cache) is left empty; with every slot empty, each
   request is answered with an error.  A client's payload crosses to a
   worker verbatim and the worker's response comes back as one frame;
   the dispatcher remembers whose request each worker holds, and parses
   only the tiny control envelope (op field) itself. *)

module Jsonx = Engine.Jsonx

type config = {
  socket : string;
  fleet : int;  (* worker processes, at least 1 *)
  cache_dir : string option;
  jobs : int;  (* pool domains per worker *)
  retries : int;
  timeout_ms : int;
}

let default_config ~socket =
  {
    socket;
    fleet = 2;
    cache_dir = None;
    jobs = 1;
    retries = 2;
    timeout_ms = 0;
  }

let log fmt = Format.eprintf ("serve: " ^^ fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Worker process                                                      *)

let make_session cfg =
  Driver.session ?cache_dir:cfg.cache_dir ~jobs:cfg.jobs ~retries:cfg.retries
    ~timeout_ms:cfg.timeout_ms ()

(* Blocking loop over the dispatcher socketpair: one frame in = one
   request, one frame out = its response.  EOF = dispatcher shut us
   down.  A driver exception turns into an error response — the worker
   survives to take the next request. *)
let worker_loop cfg fd =
  let session = make_session cfg in
  (* warm the default layout's memos before the first request *)
  Hyperenclave.Layers.warm
    (Driver.layout_of_geometry Driver.default_request.Driver.geometry);
  let rec loop () =
    match Protocol.read_frame fd with
    | Ok None | Error _ -> ()
    | exception Protocol.Closed -> ()
    | Ok (Some payload) ->
        let response =
          try Driver.handle_one session payload
          with e -> Driver.error_response ("worker error: " ^ Printexc.to_string e)
        in
        (* A response past max_frame makes [frame] raise
           Invalid_argument; dying on it would make the dispatcher
           requeue the very request that killed us — an infinite
           crash/respawn livelock.  Answer with a small error instead. *)
        let response =
          if String.length response > Protocol.max_frame then
            Driver.error_response "response exceeds the frame limit"
          else response
        in
        (match Protocol.write_frame fd response with
        | () -> loop ()
        | exception Protocol.Closed -> ())
  in
  loop ()

let fork_worker cfg ~index ~other_fds ~listen_fd =
  let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      (* child: drop every dispatcher-side fd ([other_fds]: the other
         workers' pipes and, on a respawn, the clients' sockets),
         restore default signal dispositions, serve requests until EOF.
         [_exit] skips at_exit handlers inherited from the parent
         binary. *)
      Unix.close parent_fd;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) other_fds;
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      (try worker_loop cfg child_fd
       with e -> log "fleet worker %d failed: %s" index (Printexc.to_string e));
      Unix._exit 0
  | pid ->
      Unix.close child_fd;
      log "fleet worker %d started (pid %d)" index pid;
      (pid, parent_fd)

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)

type worker = {
  w_index : int;
  mutable w_pid : int;
  mutable w_fd : Unix.file_descr;
  mutable w_reader : Protocol.Reader.t;
  mutable w_job : (int * string) option;  (* dispatched (tag, payload), None = idle *)
  mutable w_idle_deaths : int;  (* deaths without a request since its last response *)
}

type client = { c_reader : Protocol.Reader.t }

type state = {
  cfg : config;
  listen_fd : Unix.file_descr;
  clients : (Unix.file_descr, client) Hashtbl.t;
  workers : worker array;
  mutable tag_owner : (int * Unix.file_descr) list;  (* tag -> client *)
  mutable next_tag : int;
  pending : (int * string) Queue.t;  (* (tag, payload), in arrival order *)
  mutable job_deaths : (int * int) list;  (* tag -> worker deaths running it *)
  mutable stop : bool;
  mutable dead_fds : Unix.file_descr list;
      (* fds closed during the current select pass: a stale entry still
         in the readable set must be skipped, because the kernel may
         already have reused the number for a respawned worker's pipe —
         reading through the alias would block the dispatcher *)
}

(* A worker that dies at start-up — on an unusable --cache, say — would
   otherwise be respawned for ever: a request is answered with an error
   once this many workers died running it, and a slot is left empty
   once its worker died this many times in a row without a request. *)
let max_deaths = 3

let live w = w.w_idle_deaths < max_deaths

let owner_of st tag = List.assoc_opt tag st.tag_owner
let forget_tag st tag = st.tag_owner <- List.remove_assoc tag st.tag_owner

let forget_client st fd =
  (match Hashtbl.find_opt st.clients fd with
  | Some _ ->
      Hashtbl.remove st.clients fd;
      st.dead_fds <- fd :: st.dead_fds;
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  st.tag_owner <- List.filter (fun (_, c) -> c <> fd) st.tag_owner

(* Client fds are nonblocking and writes carry a deadline: one stalled
   client (full socket buffer) must not head-of-line block every other
   client and worker behind the select loop. *)
let client_send_timeout_s = 10.0

let send_to_client st fd payload =
  let payload =
    if String.length payload > Protocol.max_frame then
      Driver.error_response "response exceeds the frame limit"
    else payload
  in
  match Protocol.write_frame_deadline fd payload ~timeout_s:client_send_timeout_s with
  | () -> ()
  | exception Protocol.Closed -> forget_client st fd
  | exception Protocol.Timeout ->
      log "client stalled for %.0fs; dropping it" client_send_timeout_s;
      forget_client st fd
  | exception Unix.Unix_error _ -> forget_client st fd

let no_worker_left =
  Printf.sprintf
    "no fleet worker left: each died %d times in a row without a request \
     (see the daemon's log)"
    max_deaths

(* Control envelope: the dispatcher parses each client frame only far
   enough to route it.  Verify payloads are enqueued verbatim; ping and
   shutdown are answered here; a frame that is not JSON at all is
   answered with an error response (the connection survives — framing
   is still intact). *)
let admit st fd payload =
  match Jsonx.parse payload with
  | Error msg -> send_to_client st fd (Driver.error_response ("bad request: " ^ msg))
  | Ok j -> (
      match Option.bind (Jsonx.member "op" j) Jsonx.to_string_opt with
      | Some "ping" ->
          send_to_client st fd
            (Jsonx.to_string
               (Jsonx.Obj
                  [
                    ("ok", Jsonx.Bool true);
                    ("op", Str "pong");
                    ("fleet", Int (Array.length st.workers));
                  ]))
      | Some "shutdown" ->
          st.stop <- true;
          send_to_client st fd
            (Jsonx.to_string
               (Jsonx.Obj [ ("ok", Jsonx.Bool true); ("stopping", Bool true) ]))
      | Some "verify" | None when not (Array.exists live st.workers) ->
          send_to_client st fd (Driver.error_response no_worker_left)
      | Some "verify" | None ->
          let tag = st.next_tag in
          st.next_tag <- st.next_tag + 1;
          st.tag_owner <- (tag, fd) :: st.tag_owner;
          Queue.add (tag, payload) st.pending
      | Some op ->
          send_to_client st fd (Driver.error_response ("unknown op " ^ op)))

let deliver st tag response =
  st.job_deaths <- List.remove_assoc tag st.job_deaths;
  match owner_of st tag with
  | None -> ()  (* client went away; drop the payload *)
  | Some fd ->
      forget_tag st tag;
      send_to_client st fd response

let idle_worker st = Array.find_opt (fun w -> w.w_job = None && live w) st.workers

(* The live worker whose pipe is [fd].  An empty slot's fd was closed,
   and the kernel may have handed its number to another worker's pipe. *)
let worker_on st fd = Array.find_opt (fun w -> live w && w.w_fd = fd) st.workers

(* Put [job] back at the head of the queue, ahead of every request that
   arrived after it. *)
let requeue_front st job =
  let later = Queue.create () in
  Queue.transfer st.pending later;
  Queue.add job st.pending;
  Queue.transfer later st.pending

let respawn st w =
  st.dead_fds <- w.w_fd :: st.dead_fds;
  (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
  (match w.w_job with
  | None -> w.w_idle_deaths <- w.w_idle_deaths + 1
  | Some ((tag, _) as job) ->
      let deaths = 1 + Option.value ~default:0 (List.assoc_opt tag st.job_deaths) in
      if deaths < max_deaths then begin
        (* re-queued at the front: one death never drops a response *)
        st.job_deaths <- (tag, deaths) :: List.remove_assoc tag st.job_deaths;
        requeue_front st job
      end
      else
        deliver st tag
          (Driver.error_response
             (Printf.sprintf "worker died %d times running this request" deaths)));
  w.w_job <- None;
  if live w then begin
    log "fleet worker %d (pid %d) died; respawning" w.w_index w.w_pid;
    (* the replacement must not hold the clients' sockets: a client the
       dispatcher drops would otherwise never see EOF *)
    let other_fds =
      Array.to_list st.workers
      |> List.filter_map (fun o ->
             if o.w_index = w.w_index || not (live o) then None else Some o.w_fd)
      |> Hashtbl.fold (fun fd _ acc -> fd :: acc) st.clients
    in
    let pid, fd = fork_worker st.cfg ~index:w.w_index ~other_fds ~listen_fd:st.listen_fd in
    w.w_pid <- pid;
    w.w_fd <- fd;
    w.w_reader <- Protocol.Reader.create ()
  end
  else begin
    log "fleet worker %d (pid %d) died %d times in a row without a request; \
         not respawning" w.w_index w.w_pid max_deaths;
    if not (Array.exists live st.workers) then begin
      Queue.iter
        (fun (tag, _) -> deliver st tag (Driver.error_response no_worker_left))
        st.pending;
      Queue.clear st.pending
    end
  end

(* The payload came in as a client frame, so it fits in one worker
   frame as it is. *)
let dispatch_to st w ((_, payload) as job) =
  w.w_job <- Some job;
  match Protocol.write_frame w.w_fd payload with
  | () -> ()
  | exception (Protocol.Closed | Unix.Unix_error _) -> respawn st w

(* One request per idle worker, oldest first. *)
let rec dispatch_ready st =
  if not (Queue.is_empty st.pending) then
    match idle_worker st with
    | Some w ->
        dispatch_to st w (Queue.take st.pending);
        dispatch_ready st
    | None -> ()

let read_chunk = Bytes.create 65536

let on_client_readable st fd =
  match Hashtbl.find_opt st.clients fd with
  | None -> ()
  | Some c -> (
      match Unix.read fd read_chunk 0 (Bytes.length read_chunk) with
      | 0 -> forget_client st fd
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          forget_client st fd
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* nonblocking client fd, spurious readability *)
          ()
      | n ->
          Protocol.Reader.feed c.c_reader (Bytes.sub_string read_chunk 0 n);
          let rec drain () =
            match Protocol.Reader.next c.c_reader with
            | `Frame payload ->
                admit st fd payload;
                drain ()
            | `More -> ()
            | `Oversized bytes ->
                (* unrecoverable desync: answer, then drop the stream *)
                send_to_client st fd
                  (Driver.error_response
                     (Printf.sprintf "oversized frame: %d bytes (max %d)" bytes
                        Protocol.max_frame));
                forget_client st fd
          in
          drain ())

let on_worker_readable st w =
  match Unix.read w.w_fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> respawn st w
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> respawn st w
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | n ->
      Protocol.Reader.feed w.w_reader (Bytes.sub_string read_chunk 0 n);
      let rec drain () =
        match Protocol.Reader.next w.w_reader with
        | `Frame response ->
            Option.iter (fun (tag, _) -> deliver st tag response) w.w_job;
            w.w_job <- None;
            w.w_idle_deaths <- 0;
            drain ()
        | `More -> ()
        | `Oversized _ -> respawn st w
      in
      drain ()

let select_timeout st = if st.stop then 0.05 else 0.5

(* Is a daemon already answering on [path]?  A successful connect means
   a live listener; ECONNREFUSED (or any other failure) means the
   socket file is a stale leftover from a dead process. *)
let socket_live path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let serve cfg =
  if cfg.fleet < 1 then invalid_arg "Server.serve: fleet must be at least 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if Sys.file_exists cfg.socket then
    if socket_live cfg.socket then
      failwith
        (Printf.sprintf
           "%s: a daemon is already listening on this socket (shut it down \
            first, or pick another --serve path)"
           cfg.socket)
    else (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 64;
  (* fork the whole fleet before anything can spawn a Domain: a forked
     multicore runtime must be single-domain *)
  let workers =
    let acc = ref [] in
    for i = 0 to cfg.fleet - 1 do
      let other_fds = List.map (fun w -> w.w_fd) !acc in
      let pid, fd = fork_worker cfg ~index:i ~other_fds ~listen_fd in
      acc :=
        { w_index = i; w_pid = pid; w_fd = fd;
          w_reader = Protocol.Reader.create (); w_job = None; w_idle_deaths = 0 }
        :: !acc
    done;
    Array.of_list (List.rev !acc)
  in
  let st =
    {
      cfg;
      listen_fd;
      clients = Hashtbl.create 16;
      workers;
      tag_owner = [];
      next_tag = 0;
      pending = Queue.create ();
      job_deaths = [];
      stop = false;
      dead_fds = [];
    }
  in
  let stop_signal _ = st.stop <- true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
  log "listening on %s (fleet %d, jobs %d, cache %s)" cfg.socket cfg.fleet cfg.jobs
    (match cfg.cache_dir with Some d -> d | None -> "off");
  let all_idle () = Array.for_all (fun w -> w.w_job = None) st.workers in
  let running () =
    not (st.stop && Queue.is_empty st.pending && all_idle ())
  in
  while running () do
    st.dead_fds <- [];
    let client_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) st.clients [] in
    let worker_fds =
      List.filter_map
        (fun w -> if live w then Some w.w_fd else None)
        (Array.to_list st.workers)
    in
    let readable =
      match
        Unix.select (st.listen_fd :: (client_fds @ worker_fds)) [] []
          (select_timeout st)
      with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    if List.mem st.listen_fd readable then begin
      match Unix.accept st.listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          Hashtbl.replace st.clients fd { c_reader = Protocol.Reader.create () }
      | exception Unix.Unix_error _ -> ()
    end;
    (* handlers can close fds mid-pass (forget_client, respawn) and the
       kernel may hand the same number straight back for a respawned
       worker's pipe — a later stale entry in [readable] would then
       alias the fresh fd, so anything recorded dead this pass is
       skipped *)
    List.iter
      (fun fd ->
        if fd <> st.listen_fd && not (List.memq fd st.dead_fds) then
          if Hashtbl.mem st.clients fd then on_client_readable st fd
          else
            match worker_on st fd with
            | Some w -> on_worker_readable st w
            | None -> ())
      readable;
    dispatch_ready st
  done;
  (* graceful teardown: close the live workers' pipes (workers see EOF
     and exit), reap, unlink the socket *)
  Array.iter
    (fun w ->
      if live w then begin
        (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ()
      end)
    st.workers;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) st.clients;
  (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  log "stopped"
