(* Supervised execution of a single obligation: one attempt under an
   optional deadline, the obligation's fallback after a crash, and
   quarantine.

   An obligation's outcome is a pure function of its fingerprint, so it
   runs once: a retry would only recompute what just failed.

   Timeouts are cooperative: OCaml code cannot be interrupted
   asynchronously, so the supervisor arms one deadline slot and
   installs the global [Mirverif.Cancel] hook; check batteries poll at
   case boundaries and the poll raises [Deadline_exceeded] once the
   deadline passes.  A computation that never polls can overrun its
   deadline — the deadline bounds *check* work, which all polls. *)

type status = Ran_ok | Crashed of string | Timed_out

type resolution = Completed | Fell_back | Quarantined

type trail = { attempt : status option; resolution : resolution }

(* what a cache hit reports: nothing was attempted *)
let cached = { attempt = None; resolution = Completed }

type result = { outcome : Obligation.outcome; trail : trail; cacheable : bool }

type config = { timeout : float option; retries : int; seed : int }

let default = { timeout = None; retries = 0; seed = 0 }

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)

(* The deadline of the attempt in flight, read by the global hook. *)
let deadline : float option ref = ref None

let hook () =
  match !deadline with
  | Some d when Clock.now () > d -> raise Mirverif.Cancel.Deadline_exceeded
  | _ -> ()

let with_deadline cfg thunk =
  match cfg.timeout with
  | None -> thunk ()
  | Some dt ->
      deadline := Some (Clock.now () +. dt);
      Fun.protect ~finally:(fun () -> deadline := None) thunk

(* ------------------------------------------------------------------ *)
(* Quarantine                                                          *)

let failure_report (o : Obligation.t) ~case ~reason =
  Obligation.outcome
    [ Mirverif.Report.add_failure (Mirverif.Report.empty o.Obligation.id) ~case ~reason ]

let crash_outcome o reason =
  failure_report o ~case:"exception" ~reason:(Printf.sprintf "obligation raised: %s" reason)

let quarantine outcome status =
  { outcome; trail = { attempt = Some status; resolution = Quarantined }; cacheable = false }

(* ------------------------------------------------------------------ *)
(* Supervision                                                         *)

let supervise cfg (o : Obligation.t) =
  if cfg.timeout <> None then Mirverif.Cancel.set_hook hook;
  match with_deadline cfg o.Obligation.run with
  | outcome -> { outcome; trail = { attempt = Some Ran_ok; resolution = Completed }; cacheable = true }
  | exception Mirverif.Cancel.Deadline_exceeded ->
      let dt = Option.value ~default:0.0 cfg.timeout in
      quarantine
        (failure_report o ~case:"timeout"
           ~reason:(Printf.sprintf "obligation exceeded its %gs deadline" dt))
        Timed_out
  | exception exn -> (
      let reason = Printexc.to_string exn in
      let crashed = quarantine (crash_outcome o reason) (Crashed reason) in
      (* the compiled path crashed: discharge the obligation once
         through its conservative fallback — for code proofs, the
         reference interpreter.  The fallback depends on the same
         fingerprinted inputs, so its outcome is cacheable; the
         divergence itself is flagged in the trail, the trace and the
         supervision summary. *)
      match o.Obligation.fallback with
      | None -> crashed
      | Some fb -> (
          match with_deadline cfg fb with
          | outcome ->
              {
                outcome;
                trail = { attempt = Some (Crashed reason); resolution = Fell_back };
                cacheable = true;
              }
          | exception _ -> crashed))

(* ------------------------------------------------------------------ *)
(* Reporting helpers                                                   *)

let status_to_string = function
  | Ran_ok -> "ok"
  | Crashed _ -> "crash"
  | Timed_out -> "timeout"

let resolution_to_string = function
  | Completed -> "completed"
  | Fell_back -> "fell-back"
  | Quarantined -> "quarantined"

(* a trail worth telling the user about: anything beyond a clean
   attempt (or a cache hit) *)
let eventful t = t.resolution <> Completed

type totals = {
  supervised : int;
  retried : int;
  fell_back : int;
  quarantined : int;
  timeouts : int;
  crashes : int;
}

let totals trails =
  List.fold_left
    (fun t tr ->
      if not (eventful tr) then t
      else
        let count r = if tr.resolution = r then 1 else 0 in
        {
          t with
          supervised = t.supervised + 1;
          fell_back = t.fell_back + count Fell_back;
          quarantined = t.quarantined + count Quarantined;
          timeouts = (t.timeouts + match tr.attempt with Some Timed_out -> 1 | _ -> 0);
          crashes = (t.crashes + match tr.attempt with Some (Crashed _) -> 1 | _ -> 0);
        })
    { supervised = 0; retried = 0; fell_back = 0; quarantined = 0; timeouts = 0; crashes = 0 }
    trails
