(* Cooperative cancellation for long-running check batteries.

   The checker layers (case batteries, simulation trials) cannot be
   preempted — OCaml has no asynchronous kill — so obligations that
   must honor a deadline poll at their iteration boundaries instead.
   [poll] is deliberately a no-op until a harness (the engine's
   supervisor) installs a hook; the check libraries stay ignorant of
   who supervises them and of where deadlines come from. *)

exception Deadline_exceeded

let hook = ref (fun () -> ())

let poll () = !hook ()

let set_hook f = hook := f
