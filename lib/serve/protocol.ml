(* Length-prefixed JSON frames over a Unix-domain stream socket.

   A frame is a 4-byte big-endian payload length followed by the
   payload bytes.  The length field is bounded by [max_frame]: a peer
   announcing more is protocol abuse (or a desynchronized stream) and
   is rejected before any allocation — the daemon answers with an error
   response and closes the connection instead of crashing or buffering
   unboundedly. *)

let max_frame = 8 * 1024 * 1024

exception Closed
(* peer hung up mid-frame (EOF or EPIPE); connection-level, not fatal
   to the process *)

exception Timeout
(* a nonblocking peer stopped draining its socket buffer before the
   write deadline; connection-level, like [Closed] *)

(* ------------------------------------------------------------------ *)
(* Blocking path (clients, fleet workers)                              *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise Closed
    in
    write_all fd s (off + n) (len - n)
  end

let header n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.unsafe_to_string b

let decode_header s =
  (Char.code s.[0] lsl 24)
  lor (Char.code s.[1] lsl 16)
  lor (Char.code s.[2] lsl 8)
  lor Char.code s.[3]

let frame payload =
  let n = String.length payload in
  if n > max_frame then
    invalid_arg (Printf.sprintf "Protocol.frame: %d bytes exceeds max_frame" n);
  header n ^ payload

let write_frame fd payload =
  let f = frame payload in
  write_all fd f 0 (String.length f)

(* Bounded framed write for the dispatcher's client sockets, which are
   in nonblocking mode: a stalled peer (full socket buffer) must not
   head-of-line block the select loop forever.  Waits for writability
   with the remaining budget between partial writes; raises [Timeout]
   when [timeout_s] elapses without progress. *)
let write_frame_deadline fd payload ~timeout_s =
  let f = frame payload in
  let len = String.length f in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let wait_writable () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then raise Timeout;
    match Unix.select [] [ fd ] [] remaining with
    | _, [], _ -> raise Timeout
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let rec go off =
    if off < len then
      match Unix.write_substring fd f off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          wait_writable ();
          go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          raise Closed
  in
  go 0

(* [Some s] on a whole read, [None] on EOF at a frame boundary
   (n = 0 consumed), [Closed] on EOF mid-read. *)
let read_exactly fd n =
  if n = 0 then Some ""
  else begin
    let b = Bytes.create n in
    let rec go off =
      if off = n then Some (Bytes.unsafe_to_string b)
      else
        match Unix.read fd b off (n - off) with
        | 0 -> if off = 0 then None else raise Closed
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
            if off = 0 then None else raise Closed
    in
    go 0
  end

let read_frame fd : (string option, string) result =
  match read_exactly fd 4 with
  | None -> Ok None
  | Some hdr ->
      let n = decode_header hdr in
      if n > max_frame then
        Error (Printf.sprintf "oversized frame: %d bytes (max %d)" n max_frame)
      else (
        match read_exactly fd n with
        | Some payload -> Ok (Some payload)
        | None -> raise Closed)

(* ------------------------------------------------------------------ *)
(* Incremental path (the server's select loop)                         *)

module Reader = struct
  (* Buffered deframer: [feed] appends raw bytes as they arrive,
     [next] yields complete frames.  Torn reads — a header split
     across two reads, a payload arriving byte by byte — are the
     normal case here, not an error. *)
  type t = { mutable buf : string }

  let create () = { buf = "" }
  let feed t s = t.buf <- t.buf ^ s
  let buffered t = String.length t.buf

  let next t : [ `Frame of string | `More | `Oversized of int ] =
    let len = String.length t.buf in
    if len < 4 then `More
    else begin
      let n = decode_header t.buf in
      if n > max_frame then `Oversized n
      else if len < 4 + n then `More
      else begin
        let payload = String.sub t.buf 4 n in
        t.buf <- String.sub t.buf (4 + n) (len - 4 - n);
        `Frame payload
      end
    end
end
