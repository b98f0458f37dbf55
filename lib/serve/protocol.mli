(** The serve wire protocol: length-prefixed JSON frames over a
    Unix-domain stream socket.

    A frame is a 4-byte big-endian payload length followed by that many
    payload bytes; payloads are JSON texts ({!Engine.Jsonx}).  The
    length is bounded by {!max_frame} — an oversized announcement is
    rejected before allocation (the daemon answers with an error
    response and closes the connection), and torn/short reads are
    handled by both the blocking path and the incremental
    {!Reader}. *)

val max_frame : int
(** Upper bound on a frame payload (8 MiB). *)

exception Closed
(** Peer hung up mid-frame (EOF inside a frame, EPIPE on write).
    Connection-level: callers drop the connection, never the process. *)

exception Timeout
(** A nonblocking peer stopped draining its socket buffer before the
    deadline of {!write_frame_deadline}.  Connection-level, like
    {!Closed}. *)

val frame : string -> string
(** [frame payload] is the on-wire encoding (header ^ payload).
    Raises [Invalid_argument] past {!max_frame}. *)

val write_frame : Unix.file_descr -> string -> unit
(** Blocking framed write; raises {!Closed} on a hung-up peer. *)

val write_frame_deadline : Unix.file_descr -> string -> timeout_s:float -> unit
(** Framed write to a {e nonblocking} fd, waiting for writability
    between partial writes.  Raises {!Timeout} after [timeout_s]
    without completing, {!Closed} on a hung-up peer.  The dispatcher
    uses this for client sockets so one stalled client cannot block
    the select loop. *)

val read_frame : Unix.file_descr -> (string option, string) result
(** Blocking framed read: [Ok (Some payload)], [Ok None] on EOF at a
    frame boundary, [Error] on an oversized length announcement (the
    stream is unusable afterwards).  Raises {!Closed} on EOF
    mid-frame. *)

module Reader : sig
  (** Incremental deframer for the server's select loop: feed raw
      bytes as they arrive, pull complete frames out. *)

  type t

  val create : unit -> t
  val feed : t -> string -> unit
  val buffered : t -> int

  val next : t -> [ `Frame of string | `More | `Oversized of int ]
  (** [`More]: a torn read so far — keep feeding.  [`Oversized]: the
      header announces more than {!max_frame}; the stream cannot be
      resynchronized and must be closed. *)
end
