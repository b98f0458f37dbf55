open Hyperenclave
open Security
module Report = Mirverif.Report
module Rng = Check.Rng
module Word = Mir.Word

type event = Act of Transition.action | Inject of Plan.t

let pp_event fmt = function
  | Act a -> Transition.pp_action fmt a
  | Inject f -> Format.fprintf fmt "fault: %a" Plan.pp f

let event_to_string e = Format.asprintf "%a" pp_event e

type failure = {
  at : int;
  event : event option;
  check : string;
  reason : string;
}

let pp_failure fmt f =
  Format.fprintf fmt "event %d%s: %s check failed: %s" f.at
    (match f.event with
    | Some e -> Printf.sprintf " (%s)" (event_to_string e)
    | None -> "")
    f.check f.reason

type summary = { ran : int; applied : int; skipped : int; disabled : int }

type stats = {
  traces : int;
  events : int;
  faults : int;
  fault_skips : int;
  disabled_steps : int;
}

type counterexample = {
  cx_seed : int;
  cx_events : event list;
  cx_shrunk : event list;
  cx_failure : failure;
  cx_evals : int;
}

let pp_counterexample fmt cx =
  Format.fprintf fmt
    "@[<v>seed %d: %d events, shrunk to %d (%d replays):@,%a@,%a@]" cx.cx_seed
    (List.length cx.cx_events) (List.length cx.cx_shrunk) cx.cx_evals
    (Format.pp_print_list
       ~pp_sep:Format.pp_print_cut
       (fun fmt (i, e) -> Format.fprintf fmt "  %2d. %a" i pp_event e))
    (List.mapi (fun i e -> (i, e)) cx.cx_shrunk)
    pp_failure cx.cx_failure

(* ------------------------------------------------------------------ *)
(* Per-step checks                                                     *)

let tlb_consistent (st : State.t) =
  let d = st.State.mon in
  let geom = Absdata.geom d in
  List.fold_left
    (fun acc (p, va_page, (entry : Tlb.entry)) ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          let stale reason =
            Error
              (Printf.sprintf "stale TLB entry for %s at %s: %s"
                 (Format.asprintf "%a" Principal.pp p)
                 (Word.to_hex va_page) reason)
          in
          let walked =
            match p with
            | Principal.Os -> Nested.os_translate d ~gpa:va_page
            | Principal.Enclave eid ->
                Result.bind (Absdata.find_enclave d eid) (fun e ->
                    Nested.enclave_translate d e ~va:va_page)
          in
          match walked with
          | Ok (Some (hpa, flags))
            when Word.equal (Geometry.page_base geom hpa) entry.Tlb.hpa_page
                 && Flags.equal flags entry.Tlb.flags ->
              Ok ()
          | Ok (Some _) -> stale "the walked translation differs"
          | Ok None -> stale "the mapping is gone"
          | Error msg -> stale ("the walk fails: " ^ msg)))
    (Ok ())
    (Tlb.to_list st.State.tlb)

let reports_status = function
  | Transition.Hc_create _ | Transition.Hc_add_page _
  | Transition.Hc_remove_page _ | Transition.Hc_init_done _ ->
      true
  | Transition.Const _ | Transition.Compute _ | Transition.Load _
  | Transition.Store _ | Transition.Hc_enter _ | Transition.Hc_exit ->
      false

let is_transfer = function
  | Transition.Hc_enter _ | Transition.Hc_exit -> true
  | _ -> false

(* Transactionality of the monitor state: failed status-reporting
   hypercalls and (always) enter/exit must leave [Absdata.t] alone. *)
let transactional ~(before : State.t) ~(after : State.t) action =
  if reports_status action then
    match State.reg after 0 with
    | Error msg -> Error ("status-code", "status register unreadable: " ^ msg)
    | Ok code -> (
        match Hypercall.status_of_code code with
        | None ->
            Error
              ( "status-code",
                Printf.sprintf "hypercall produced unknown status word %s"
                  (Word.to_hex code) )
        | Some Hypercall.Success -> Ok ()
        | Some status ->
            if Absdata.equal before.State.mon after.State.mon then Ok ()
            else
              Error
                ( "transactionality",
                  Format.asprintf
                    "hypercall failed with %a but mutated the abstract state"
                    Hypercall.pp_status status ))
  else if is_transfer action then
    if Absdata.equal before.State.mon after.State.mon then Ok ()
    else Error ("transactionality", "enter/exit mutated the abstract state")
  else Ok ()

(* [inv] / [tlb]: which checks are still armed.  A corrupting fault
   legitimately breaks the invariants; only translation-changing
   corruption disarms TLB consistency (see {!Plan.breaks_translation}). *)
let state_checks ~inv ~tlb (st : State.t) =
  let inv_ok =
    if not inv then Ok ()
    else
      match Invariants.check st.State.mon with
      | Error reason -> Error ("invariant", reason)
      | Ok () -> Ok ()
  in
  match inv_ok with
  | Error _ as e -> e
  | Ok () ->
      if not tlb then Ok ()
      else (
        match tlb_consistent st with
        | Error reason -> Error ("tlb-consistency", reason)
        | Ok () -> Ok ())

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type progress = {
  st : State.t;
  inv : bool;  (** invariant check still armed *)
  tlb : bool;  (** TLB-consistency check still armed *)
  halt : bool;
  sum : summary;
}

let exec ~flush { st; inv; tlb; halt = _; sum } i ev =
  let sum = { sum with ran = sum.ran + 1 } in
  let fail (check, reason) = Error { at = i; event = Some ev; check; reason } in
  match ev with
  | Inject Plan.Truncate ->
      Ok { st; inv; tlb; halt = true; sum = { sum with applied = sum.applied + 1 } }
  | Inject f -> (
      match Inject.apply f st with
      | Error _ ->
          Ok { st; inv; tlb; halt = false; sum = { sum with skipped = sum.skipped + 1 } }
      | Ok st' -> (
          let inv = inv && not (Plan.corrupts f) in
          let tlb = tlb && not (Plan.breaks_translation f) in
          let sum = { sum with applied = sum.applied + 1 } in
          match state_checks ~inv ~tlb st' with
          | Error e -> fail e
          | Ok () -> Ok { st = st'; inv; tlb; halt = false; sum }))
  | Act a -> (
      match Transition.step ~flush st a with
      | Error _ ->
          (* the action is disabled here; the state is unchanged *)
          Ok { st; inv; tlb; halt = false; sum = { sum with disabled = sum.disabled + 1 } }
      | Ok st' -> (
          match transactional ~before:st ~after:st' a with
          | Error e -> fail e
          | Ok () -> (
              match state_checks ~inv ~tlb st' with
              | Error e -> fail e
              | Ok () -> Ok { st = st'; inv; tlb; halt = false; sum })))

let replay ?(flush = true) layout events =
  let rec go p i = function
    | [] -> Ok p.sum
    | ev :: rest -> (
        let outcome =
          try exec ~flush p i ev
          with exn ->
            Error
              {
                at = i;
                event = Some ev;
                check = "exception";
                reason = Printexc.to_string exn;
              }
        in
        match outcome with
        | Error f -> Error f
        | Ok p -> if p.halt then Ok p.sum else go p (i + 1) rest)
  in
  go
    {
      st = State.boot layout;
      inv = true;
      tlb = true;
      halt = false;
      sum = { ran = 0; applied = 0; skipped = 0; disabled = 0 };
    }
    0 events

(* ------------------------------------------------------------------ *)
(* Trace generation                                                    *)

let events_for ?(faults = Plan.all_kinds) ~seed ~len layout =
  let rng = Rng.make seed in
  (* Each trace is a {e campaign} enabling a random subset of the
     requested fault kinds.  Focused mixes matter: a trace whose
     campaign omits the corrupting kinds keeps the invariant and TLB
     checks armed end to end, which is where missing-flush bugs are
     caught; a trace that enables them stresses graceful degradation
     instead. *)
  let kinds, rng =
    List.fold_left
      (fun (acc, rng) k ->
        let keep, rng = Rng.bool rng in
        ((if keep then k :: acc else acc), rng))
      ([], rng) faults
  in
  let kinds = List.rev kinds in
  let rec go rng k acc =
    if k <= 0 then List.rev acc
    else
      let roll, rng = Rng.int_below rng 5 in
      if roll = 0 && kinds <> [] then
        let f, rng = Plan.random rng layout ~kinds in
        go rng (k - 1) (Inject f :: acc)
      else
        let a, rng = Check.Gen.random_action rng layout in
        go rng (k - 1) (Act a :: acc)
  in
  go rng len []

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let run ?(flush = true) ?(faults = Plan.all_kinds) ?(len = 40) ~seed ~traces
    layout =
  let zero =
    { traces = 0; events = 0; faults = 0; fault_skips = 0; disabled_steps = 0 }
  in
  let add stats (sum : summary) =
    {
      traces = stats.traces + 1;
      events = stats.events + sum.ran;
      faults = stats.faults + sum.applied;
      fault_skips = stats.fault_skips + sum.skipped;
      disabled_steps = stats.disabled_steps + sum.disabled;
    }
  in
  let rec go stats i =
    if i >= traces then (stats, None)
    else
      let events = events_for ~faults ~seed:(seed + i) ~len layout in
      match replay ~flush layout events with
      | Ok sum -> go (add stats sum) (i + 1)
      | Error failure ->
          let check evs = Result.is_error (replay ~flush layout evs) in
          let shrunk, evals = Check.Shrink.evaluations ~check events in
          let cx_failure =
            match replay ~flush layout shrunk with
            | Error f -> f
            | Ok _ -> failure
          in
          ( { stats with traces = stats.traces + 1 },
            Some
              {
                cx_seed = seed + i;
                cx_events = events;
                cx_shrunk = shrunk;
                cx_failure;
                cx_evals = evals;
              } )
  in
  go zero 0
