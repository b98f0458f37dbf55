(* Chaos for the checker: deterministic fault injection against the
   verification engine itself.

   [lib/fault] perturbs the *monitor under verification*; this module
   perturbs the *engine* — obligations crash or hang, worker domains
   die, cache pack files tear, and the clock skews — so CI can assert
   that the supervised pool still terminates and produces verdicts
   byte-identical to a clean run.

   Every decision is a pure function of (seed, site tag): which
   obligation faults, with what kind, and for how many attempts is
   independent of scheduling, job count, and wall-clock, so a fixed
   seed replays the exact same fault plan.  The only
   schedule-dependent aspect is *which worker* observes a fault (e.g.
   who picks up a kill-marked obligation first) — never *what* is
   injected or what the verdicts are.

   Injection is bounded by construction: an obligation is never
   faulted on more consecutive attempts than the supervisor's retry
   budget can absorb (the supervisor clamps persistence to its retry
   count), and a kill-marked obligation kills only its first executor.
   Chaos therefore proves recovery; quarantine itself is exercised by
   direct supervisor tests, not by this harness. *)

module Plan = Fault.Plan

exception Worker_killed of string

type fault = No_fault | Crash of int | Hang of int

type t = {
  seed : int;
  kinds : Plan.engine_kind list;
  rate : int;  (* one in [rate] obligations draws a fault *)
  counters : (Plan.engine_kind * int Atomic.t) list;
  (* per-site visit counts: makes "fault only the first occurrence"
     decisions deterministic in *count* even when the visiting worker
     varies with the schedule *)
  visits : (string, int) Hashtbl.t;
  visits_mu : Mutex.t;
  skew : float Atomic.t;  (* cumulative injected clock skew, seconds *)
}

let create ?(kinds = Plan.all_engine_kinds) ?(rate = 8) ~seed () =
  if rate < 1 then invalid_arg "Engine_chaos.create: rate must be >= 1";
  {
    seed;
    kinds;
    rate;
    counters = List.map (fun k -> (k, Atomic.make 0)) Plan.all_engine_kinds;
    visits = Hashtbl.create 64;
    visits_mu = Mutex.create ();
    skew = Atomic.make 0.0;
  }

let seed t = t.seed
let kinds t = t.kinds
let enabled t k = List.mem k t.kinds

let note t k = Atomic.incr (List.assoc k t.counters)

let injected t =
  List.map (fun (k, c) -> (k, Atomic.get c)) t.counters

let injected_total t =
  List.fold_left (fun n (_, c) -> n + Atomic.get c) 0 t.counters

(* Deterministic per-site stream: seed and tag in, well-mixed
   non-negative int out.  The same multiplicative fold as
   [Plan.stream_seed] so site streams are decorrelated from the
   generator streams of the obligations themselves. *)
let hash t tag =
  let h = ref (t.seed + 0x45D9F3B) in
  String.iter (fun c -> h := (!h * 131) + Char.code c) tag;
  let w, _ = Check.Rng.next (Check.Rng.make (!h land 0x3FFF_FFFF)) in
  Int64.to_int (Int64.logand w 0x3FFF_FFFFL)

(* true exactly on the first visit of [site], across all workers *)
let first_visit t site =
  Mutex.lock t.visits_mu;
  let n = Option.value ~default:0 (Hashtbl.find_opt t.visits site) in
  Hashtbl.replace t.visits site (n + 1);
  Mutex.unlock t.visits_mu;
  n = 0

(* ------------------------------------------------------------------ *)
(* Hook: obligation execution                                          *)

let obl_fault t ~id =
  let h = hash t ("obl/" ^ id) in
  if h mod t.rate <> 0 then No_fault
  else
    (* persist for 1 or 2 attempts — the supervisor additionally clamps
       this to its retry budget, so the final attempt is always clean *)
    let persist = 1 + (h / t.rate) mod 2 in
    let crash = enabled t Plan.Obl_crash and hang = enabled t Plan.Obl_hang in
    match (crash, hang) with
    | false, false -> No_fault
    | true, false -> Crash persist
    | false, true -> Hang persist
    | true, true -> if (h / 7) mod 4 = 0 then Hang persist else Crash persist

(* ------------------------------------------------------------------ *)
(* Hook: worker scheduling                                             *)

(* Kill the worker about to execute (site "pre-exec") or about to
   publish (site "post-exec") obligation [id] — but only the first
   executor: the re-pushed obligation must eventually run. *)
let kill_worker t ~site ~id =
  enabled t Plan.Worker_kill
  && hash t (Printf.sprintf "kill/%s/%s" site id) mod (t.rate * 4) = 0
  && first_visit t (Printf.sprintf "kill/%s/%s" site id)
  && begin
       note t Plan.Worker_kill;
       true
     end

(* ------------------------------------------------------------------ *)
(* Hook: cache files                                                   *)

let truncate_file path =
  match (Unix.stat path).Unix.st_size with
  | exception Unix.Unix_error _ -> ()
  | size when size < 2 -> ()
  | size -> ( try Unix.truncate path (size / 2) with Unix.Unix_error _ -> ())

(* Tear the first pack file this process writes: the in-memory index
   keeps the current run warm, but the next [Cache.create] must evict
   the torn pack wholesale and recompute cold. *)
let tear_pack t ~path =
  if enabled t Plan.Torn_pack && first_visit t "tear-pack" then begin
    truncate_file path;
    note t Plan.Torn_pack
  end

(* ------------------------------------------------------------------ *)
(* Hook: the clock                                                     *)

let max_skew = 0.2 (* seconds, cumulative — small against any sane deadline *)

(* A time source that occasionally jumps forward by a deterministic
   (per jump index) amount, bounded by [max_skew] in total.  Always
   monotone: skew only grows, and the base is the clamped real clock,
   so the supervisor's deadlines stay meaningful while timestamps
   wobble. *)
let skewed_source t =
  if not (enabled t Plan.Clock_skew) then Clock.real
  else
    let calls = Atomic.make 0 in
    fun () ->
      let n = Atomic.fetch_and_add calls 1 in
      if n land 255 = 0 && Atomic.get t.skew < max_skew then begin
        let bump = float_of_int (hash t (Printf.sprintf "skew/%d" n) mod 997) *. 1e-5 in
        let rec add () =
          let s = Atomic.get t.skew in
          if s < max_skew && not (Atomic.compare_and_set t.skew s (s +. bump)) then
            add ()
        in
        add ();
        note t Plan.Clock_skew
      end;
      Clock.real () +. Atomic.get t.skew
