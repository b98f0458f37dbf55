(* The engine's single time source.  Everything that timestamps work
   (obligation started/finished, pool wall-clock) reads this module, so
   tests can substitute a deterministic source and the choice of OS
   clock lives in exactly one place.

   [Unix.gettimeofday] is wall time and may step backwards under NTP;
   the monotonic clamp below makes the published sequence
   non-decreasing, which is all the schedule metadata needs. *)

let gettimeofday = Unix.gettimeofday

(* last value handed out *)
let last = ref neg_infinity

let real () =
  let t = gettimeofday () in
  if t >= !last then last := t;
  !last

let source = ref real

let now () = !source ()

let with_source f thunk =
  let prev = !source in
  source := f;
  Fun.protect ~finally:(fun () -> source := prev) thunk
