(* Supervised execution of a single obligation: per-attempt deadlines,
   deterministic retry with exponential backoff, a degradation ladder,
   and quarantine.

   The pool calls {!supervise} instead of running [o.run] bare.  The
   default {!default} config (no timeout, no retries, no chaos)
   reproduces the unsupervised behaviour exactly — one attempt, any
   exception absorbed into the legacy one-failure crash report — so
   existing callers and byte-identical-output guarantees are
   untouched.

   Timeouts are cooperative: OCaml code cannot be interrupted
   asynchronously, so the supervisor arms one deadline slot and
   installs the global [Mirverif.Cancel] hook; check batteries poll at
   case boundaries and the poll raises [Deadline_exceeded] once the
   deadline passes.  A computation that never polls can overrun its
   deadline — the deadline bounds *check* work, which all polls.

   Determinism: every retry/backoff/quarantine decision is a pure
   function of (config, obligation id, attempt number).  Backoff
   durations come from a per-(seed, id, attempt) hash stream, not a
   shared RNG, so the decisions replay identically whatever order the
   obligations run in; only wall-clock timestamps differ. *)

module Plan = Fault.Plan

type status = Ran_ok | Crashed of string | Timed_out

type attempt = {
  n : int;  (* 1-based *)
  status : status;
  injected : Plan.engine_kind option;  (* chaos fault applied to this attempt *)
  backoff : float;  (* delay slept before the next attempt; 0 on the last *)
}

type resolution = Completed | Recovered | Fell_back | Quarantined

type trail = { attempts : attempt list; resolution : resolution }

(* what a cache hit reports: nothing was attempted *)
let cached = { attempts = []; resolution = Completed }

type result = { outcome : Obligation.outcome; trail : trail; cacheable : bool }

type config = {
  timeout : float option;
  retries : int;
  backoff_base : float;
  backoff_max : float;
  seed : int;
  sleep : float -> unit;
  chaos : Engine_chaos.t option;
}

let default =
  {
    timeout = None;
    retries = 0;
    backoff_base = 0.05;
    backoff_max = 1.0;
    seed = 0;
    sleep = (fun d -> if d > 0.0 then Unix.sleepf d);
    chaos = None;
  }

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
(* Deterministic backoff                                               *)

let stream cfg tag =
  let h = ref (cfg.seed + 0x6C62_72E5) in
  String.iter (fun c -> h := (!h * 131) + Char.code c) tag;
  let w, _ = Check.Rng.next (Check.Rng.make (!h land 0x3FFF_FFFF)) in
  Int64.to_int (Int64.logand w 0x3FFF_FFFFL)

(* min(backoff_max, base * 2^(n-1)) * (1 + jitter), jitter in [0, 1)
   drawn from the per-(seed, id, attempt) stream *)
let backoff_delay cfg ~id ~attempt =
  let nominal =
    Float.min cfg.backoff_max
      (cfg.backoff_base *. Float.pow 2.0 (float_of_int (attempt - 1)))
  in
  let u = stream cfg (Printf.sprintf "backoff/%s/%d" id attempt) in
  nominal *. (1.0 +. (float_of_int (u mod 1000) /. 1000.0))

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)

exception Injected_crash

(* The fault the chaos harness assigns to this obligation, normalized
   against the config: persistence is clamped to the retry budget (the
   attempt after the last injected one always runs clean, so chaos can
   perturb the path but never the verdict), and a hang with no deadline
   configured degrades to a crash (nothing would ever cancel it). *)
let fault_for cfg (o : Obligation.t) =
  match cfg.chaos with
  | None -> Engine_chaos.No_fault
  | Some ch -> (
      match Engine_chaos.obl_fault ch ~id:o.Obligation.id with
      | Engine_chaos.No_fault -> Engine_chaos.No_fault
      | Engine_chaos.Crash p -> Engine_chaos.Crash (min p cfg.retries)
      | Engine_chaos.Hang p ->
          let p = min p cfg.retries in
          if cfg.timeout = None then Engine_chaos.Crash p else Engine_chaos.Hang p)

let injected_at fault n =
  match fault with
  | Engine_chaos.No_fault -> None
  | Engine_chaos.Crash p -> if n <= p then Some Plan.Obl_crash else None
  | Engine_chaos.Hang p -> if n <= p then Some Plan.Obl_hang else None

(* An injected hang makes no progress; only the cancellation poll gets
   us out.  [sleep] keeps it from spinning a core flat out (and is a
   no-op under mocked clocks in tests). *)
let hang cfg =
  let rec spin () =
    Mirverif.Cancel.poll ();
    cfg.sleep 0.0005;
    spin ()
  in
  spin ()

(* ------------------------------------------------------------------ *)
(* Attempts                                                            *)

type att = A_ok of Obligation.outcome | A_crash of string | A_timeout

let run_attempt cfg (o : Obligation.t) ~fault ~n =
  match
    with_deadline cfg (fun () ->
        (match injected_at fault n with
        | Some Plan.Obl_crash ->
            Option.iter (fun ch -> Engine_chaos.note ch Plan.Obl_crash) cfg.chaos;
            raise Injected_crash
        | Some Plan.Obl_hang ->
            Option.iter (fun ch -> Engine_chaos.note ch Plan.Obl_hang) cfg.chaos;
            hang cfg
        | _ -> ());
        o.Obligation.run ())
  with
  | outcome -> A_ok outcome
  | exception Mirverif.Cancel.Deadline_exceeded -> A_timeout
  | exception Injected_crash -> A_crash "chaos: injected crash"
  | exception exn -> A_crash (Printexc.to_string exn)

let run_fallback cfg fb =
  match with_deadline cfg fb with
  | outcome -> Some outcome
  | exception _ -> None

(* ------------------------------------------------------------------ *)
(* Quarantine                                                          *)

let failure_report (o : Obligation.t) ~case ~reason =
  Obligation.outcome
    [ Mirverif.Report.add_failure (Mirverif.Report.empty o.Obligation.id) ~case ~reason ]

let quarantined_outcome (o : Obligation.t) attempts =
  match attempts with
  | [ { status = Crashed reason; _ } ] ->
      (* the unsupervised shape: a single unretried crash reports
         exactly as the pre-supervisor pool did *)
      failure_report o ~case:"exception"
        ~reason:(Printf.sprintf "obligation raised: %s" reason)
  | _ ->
      let n = List.length attempts in
      let last_desc =
        match (List.nth attempts (n - 1)).status with
        | Crashed r -> Printf.sprintf "raised: %s" r
        | Timed_out -> "timed out"
        | Ran_ok -> "succeeded"
      in
      failure_report o ~case:"quarantine"
        ~reason:
          (Printf.sprintf "obligation quarantined after %d attempt(s); last attempt %s"
             n last_desc)

(* ------------------------------------------------------------------ *)
(* The supervision loop                                                *)

let supervise cfg (o : Obligation.t) =
  if cfg.timeout <> None then Mirverif.Cancel.set_hook hook;
  let fault = fault_for cfg o in
  let max_attempts = 1 + max 0 cfg.retries in
  let rec go n acc =
    match run_attempt cfg o ~fault ~n with
    | A_ok outcome ->
        let attempts =
          List.rev ({ n; status = Ran_ok; injected = injected_at fault n; backoff = 0.0 } :: acc)
        in
        let resolution = if n = 1 then Completed else Recovered in
        { outcome; trail = { attempts; resolution }; cacheable = true }
    | (A_crash _ | A_timeout) as res ->
        let status = match res with A_crash r -> Crashed r | _ -> Timed_out in
        if n < max_attempts then begin
          let delay = backoff_delay cfg ~id:o.Obligation.id ~attempt:n in
          cfg.sleep delay;
          go (n + 1) ({ n; status; injected = injected_at fault n; backoff = delay } :: acc)
        end
        else begin
          let attempts =
            List.rev ({ n; status; injected = injected_at fault n; backoff = 0.0 } :: acc)
          in
          (* degradation ladder: when the compiled path crashed (as
             opposed to merely running out of time), discharge the
             obligation once through its conservative fallback — for
             code proofs, the reference interpreter.  The fallback
             depends on the same fingerprinted inputs, so its outcome
             is cacheable; the divergence itself is flagged in the
             trail, the trace, and the supervision summary. *)
          let crashed =
            List.exists (fun a -> match a.status with Crashed _ -> true | _ -> false) attempts
          in
          match (if crashed then o.Obligation.fallback else None) with
          | Some fb -> (
              match run_fallback cfg fb with
              | Some outcome ->
                  { outcome; trail = { attempts; resolution = Fell_back }; cacheable = true }
              | None ->
                  {
                    outcome = quarantined_outcome o attempts;
                    trail = { attempts; resolution = Quarantined };
                    cacheable = false;
                  })
          | None ->
              {
                outcome = quarantined_outcome o attempts;
                trail = { attempts; resolution = Quarantined };
                cacheable = false;
              }
        end
  in
  go 1 []

(* ------------------------------------------------------------------ *)
(* Reporting helpers                                                   *)

let status_to_string = function
  | Ran_ok -> "ok"
  | Crashed _ -> "crash"
  | Timed_out -> "timeout"

let resolution_to_string = function
  | Completed -> "completed"
  | Recovered -> "recovered"
  | Fell_back -> "fell-back"
  | Quarantined -> "quarantined"

(* a trail worth telling the user about: anything beyond a clean
   single attempt (or a cache hit) *)
let eventful t =
  match (t.attempts, t.resolution) with
  | ([] | [ { status = Ran_ok; _ } ]), Completed -> false
  | _ -> true

type totals = {
  supervised : int;  (* obligations with an eventful trail *)
  retried : int;
  recovered : int;
  fell_back : int;
  quarantined : int;
  timeouts : int;  (* timed-out attempts, total *)
  crashes : int;  (* crashed attempts, total *)
}

let totals trails =
  List.fold_left
    (fun t tr ->
      if not (eventful tr) then t
      else
        let timeouts, crashes =
          List.fold_left
            (fun (ti, cr) a ->
              match a.status with
              | Timed_out -> (ti + 1, cr)
              | Crashed _ -> (ti, cr + 1)
              | Ran_ok -> (ti, cr))
            (0, 0) tr.attempts
        in
        {
          supervised = t.supervised + 1;
          retried = (t.retried + if List.length tr.attempts > 1 then 1 else 0);
          recovered = (t.recovered + if tr.resolution = Recovered then 1 else 0);
          fell_back = (t.fell_back + if tr.resolution = Fell_back then 1 else 0);
          quarantined = (t.quarantined + if tr.resolution = Quarantined then 1 else 0);
          timeouts = t.timeouts + timeouts;
          crashes = t.crashes + crashes;
        })
    { supervised = 0; retried = 0; recovered = 0; fell_back = 0; quarantined = 0;
      timeouts = 0; crashes = 0 }
    trails
