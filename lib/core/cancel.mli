(** Cooperative cancellation points for long-running check batteries.

    Check code (case batteries, simulation trials) calls {!poll} at
    iteration boundaries.  By default it is a no-op; a supervising
    harness installs a hook with {!set_hook} that raises
    {!Deadline_exceeded} once the current obligation's deadline has
    passed. *)

exception Deadline_exceeded
(** Raised (by the installed hook) from {!poll} when the supervising
    harness decides the current computation has run out of time.  Check
    code must let it propagate. *)

val poll : unit -> unit
(** Cancellation point.  No-op unless a hook is installed. *)

val set_hook : (unit -> unit) -> unit
(** Install the global cancellation hook (supervisor use only). *)
