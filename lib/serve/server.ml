(* The --serve daemon: a Unix-socket dispatcher in front of one forked
   verification worker.

   Topology:

     clients ──frames──▶ dispatcher (select loop, no verification)
                            │  one request at a time, in arrival
                            │  order, forwarded as one raw frame
                            ▼
                         worker   (a forked process: own OCaml runtime
                            │      and GC, resident session memos)
                            ▼
               --cache directory (pack files, advisory-locked flushes;
               Cache.refresh before each request's run)

   The worker is there for isolation, not speed: a request that exhausts
   the heap or the stack kills the worker, never the dispatcher, which
   owns every client connection and never blocks on verification.  So a
   worker death cannot drop a response: the dead worker's request stays
   with it and is sent to a replacement, forked at once, before any
   later request.  Respawning is bounded by [max_deaths]: a request
   whose worker died that many times is answered with an error, and a
   worker that died that many times in a row without a request (say, on
   an unusable --cache) is not replaced; from then on each request is
   answered with an error.  A client's payload crosses to the worker
   verbatim and the worker's response comes back as one frame; the
   dispatcher remembers whose request the worker holds, and parses only
   the tiny control envelope (op field) itself. *)

module Jsonx = Engine.Jsonx

type config = {
  socket : string;
  cache_dir : string option;
  timeout_ms : int;
}

let default_config ~socket = { socket; cache_dir = None; timeout_ms = 0 }

let log fmt = Format.eprintf ("serve: " ^^ fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Worker process                                                      *)

let make_session cfg =
  Driver.session ?cache_dir:cfg.cache_dir ~timeout_ms:cfg.timeout_ms ()

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
           re-send the very request that killed us to each replacement
           until [max_deaths], and answer with a misleading death
           count.  Answer with a small error instead. *)
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

(* The worker's log lines keep the name "fleet worker 0": the
   end-to-end benchmark finds the worker's pid by its start line. *)
let fork_worker cfg ~client_fds ~listen_fd =
  let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      (* child: drop every dispatcher-side fd ([client_fds]: on a
         respawn, the clients' sockets), restore default signal
         dispositions, serve requests until EOF.  [_exit] skips at_exit
         handlers inherited from the parent binary. *)
      Unix.close parent_fd;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) client_fds;
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      (try worker_loop cfg child_fd
       with e -> log "fleet worker 0 failed: %s" (Printexc.to_string e));
      Unix._exit 0
  | pid ->
      Unix.close child_fd;
      log "fleet worker 0 started (pid %d)" pid;
      (pid, parent_fd)

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)

type worker = {
  mutable w_pid : int;
  mutable w_fd : Unix.file_descr;
  mutable w_reader : Protocol.Reader.t;
  mutable w_job : (int * string) option;  (* dispatched (tag, payload), None = idle *)
  mutable w_job_deaths : int;  (* deaths running [w_job] *)
  mutable w_idle_deaths : int;  (* deaths without a request since its last response *)
}

type client = { c_reader : Protocol.Reader.t }

type state = {
  cfg : config;
  listen_fd : Unix.file_descr;
  clients : (Unix.file_descr, client) Hashtbl.t;
  worker : worker;
  mutable tag_owner : (int * Unix.file_descr) list;  (* tag -> client *)
  mutable next_tag : int;
  pending : (int * string) Queue.t;  (* (tag, payload), in arrival order *)
  mutable stop : bool;
  mutable dead_fds : Unix.file_descr list;
      (* fds closed during the current select pass: a stale entry still
         in the readable set must be skipped, because the kernel may
         already have reused the number for the respawned worker's pipe —
         reading through the alias would block the dispatcher *)
}

(* A worker that dies at start-up — on an unusable --cache, say — would
   otherwise be respawned for ever: a request is answered with an error
   once its worker died this many times running it, and the worker is
   not replaced once it died this many times in a row without a
   request. *)
let max_deaths = 3

let live w = w.w_idle_deaths < max_deaths

(* Is [fd] the live worker's pipe?  A retired worker's fd was closed,
   and the kernel may have handed its number to a client. *)
let is_worker_pipe st fd = live st.worker && st.worker.w_fd = fd

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
    "no worker left: it died %d times in a row without a request (see the \
     daemon's log)"
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
            (Jsonx.to_string (Jsonx.Obj [ ("ok", Jsonx.Bool true); ("op", Str "pong") ]))
      | Some "shutdown" ->
          st.stop <- true;
          send_to_client st fd
            (Jsonx.to_string
               (Jsonx.Obj [ ("ok", Jsonx.Bool true); ("stopping", Bool true) ]))
      | Some "verify" | None when not (live st.worker) ->
          send_to_client st fd (Driver.error_response no_worker_left)
      | Some "verify" | None ->
          let tag = st.next_tag in
          st.next_tag <- st.next_tag + 1;
          st.tag_owner <- (tag, fd) :: st.tag_owner;
          Queue.add (tag, payload) st.pending
      | Some op ->
          send_to_client st fd (Driver.error_response ("unknown op " ^ op)))

let deliver st tag response =
  match owner_of st tag with
  | None -> ()  (* client went away; drop the payload *)
  | Some fd ->
      forget_tag st tag;
      send_to_client st fd response

(* Replace a dead worker.  The request it held stays with it and goes
   to the replacement, ahead of every later request, until it has cost
   [max_deaths] workers. *)
let rec respawn st =
  let w = st.worker in
  st.dead_fds <- w.w_fd :: st.dead_fds;
  (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
  (match w.w_job with
  | None -> w.w_idle_deaths <- w.w_idle_deaths + 1
  | Some (tag, _) ->
      w.w_job_deaths <- w.w_job_deaths + 1;
      if w.w_job_deaths >= max_deaths then begin
        w.w_job <- None;
        deliver st tag
          (Driver.error_response
             (Printf.sprintf "worker died %d times running this request" w.w_job_deaths))
      end);
  if live w then begin
    log "fleet worker 0 (pid %d) died; respawning" w.w_pid;
    (* the replacement must not hold the clients' sockets: a client the
       dispatcher drops would otherwise never see EOF *)
    let client_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) st.clients [] in
    let pid, fd = fork_worker st.cfg ~client_fds ~listen_fd:st.listen_fd in
    w.w_pid <- pid;
    w.w_fd <- fd;
    w.w_reader <- Protocol.Reader.create ();
    Option.iter (fun (_, payload) -> send_job st payload) w.w_job
  end
  else begin
    log "fleet worker 0 (pid %d) died %d times in a row without a request; \
         not respawning" w.w_pid max_deaths;
    Queue.iter
      (fun (tag, _) -> deliver st tag (Driver.error_response no_worker_left))
      st.pending;
    Queue.clear st.pending
  end

(* The payload came in as a client frame, so it fits in one worker
   frame as it is. *)
and send_job st payload =
  match Protocol.write_frame st.worker.w_fd payload with
  | () -> ()
  | exception (Protocol.Closed | Unix.Unix_error _) -> respawn st

(* One request at a time, oldest first. *)
let rec dispatch_ready st =
  let w = st.worker in
  if w.w_job = None && live w then
    match Queue.take_opt st.pending with
    | None -> ()
    | Some ((_, payload) as job) ->
        w.w_job <- Some job;
        w.w_job_deaths <- 0;
        send_job st payload;
        dispatch_ready st

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

let on_worker_readable st =
  let w = st.worker in
  match Unix.read w.w_fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> respawn st
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> respawn st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | n ->
      Protocol.Reader.feed w.w_reader (Bytes.sub_string read_chunk 0 n);
      let rec drain () =
        match Protocol.Reader.next w.w_reader with
        | `Frame response ->
            let job = w.w_job in
            w.w_job <- None;
            w.w_idle_deaths <- 0;
            (* the next request goes to the worker before this answer goes
               to its client, so the one worker does not idle while the
               dispatcher writes *)
            dispatch_ready st;
            Option.iter (fun (tag, _) -> deliver st tag response) job;
            drain ()
        | `More -> ()
        | `Oversized _ -> respawn st
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
  let pid, fd = fork_worker cfg ~client_fds:[] ~listen_fd in
  let st =
    {
      cfg;
      listen_fd;
      clients = Hashtbl.create 16;
      worker =
        { w_pid = pid; w_fd = fd; w_reader = Protocol.Reader.create (); w_job = None;
          w_job_deaths = 0; w_idle_deaths = 0 };
      tag_owner = [];
      next_tag = 0;
      pending = Queue.create ();
      stop = false;
      dead_fds = [];
    }
  in
  let stop_signal _ = st.stop <- true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
  log "listening on %s (cache %s)" cfg.socket
    (match cfg.cache_dir with Some d -> d | None -> "off");
  let running () =
    not (st.stop && Queue.is_empty st.pending && st.worker.w_job = None)
  in
  while running () do
    st.dead_fds <- [];
    let client_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) st.clients [] in
    let worker_fds = if live st.worker then [ st.worker.w_fd ] else [] in
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
          else if is_worker_pipe st fd then on_worker_readable st)
      readable;
    dispatch_ready st
  done;
  (* graceful teardown: close the live worker's pipe (it sees EOF and
     exits), reap it, unlink the socket *)
  let w = st.worker in
  if live w then begin
    (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ()
  end;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) st.clients;
  (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  log "stopped"
