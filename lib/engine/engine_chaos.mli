(** Chaos for the checker: deterministic fault injection against the
    verification engine itself.

    Where [lib/fault] perturbs the monitor under verification, this
    module perturbs the engine — obligations crash or hang, the pool's
    worker dies, cache pack files tear, and the clock skews — so CI
    can assert that the supervised pool ({!Supervisor}, {!Pool}) still
    terminates with verdicts byte-identical to a clean run.

    Every decision is a pure function of (seed, site tag): what is
    injected, on which obligation, and for how many attempts is
    independent of run order.  Injection is bounded by
    construction — persistence never exceeds the supervisor's retry
    budget (the supervisor clamps it), and a kill-marked obligation
    kills only its first executor — so a chaos run always recovers to
    the clean verdicts. *)

exception Worker_killed of string
(** Raised at pool hook points to simulate the pool's worker dying.
    Deliberately *not* absorbed by the supervisor's per-obligation
    crash handling: it propagates to the pool's worker wrapper, which
    respawns the worker (up to a limit) and re-enqueues the in-flight
    obligation. *)

type fault =
  | No_fault
  | Crash of int  (** raise on attempts [1..persist] *)
  | Hang of int  (** stall until the deadline on attempts [1..persist] *)

type t

val create :
  ?kinds:Fault.Plan.engine_kind list -> ?rate:int -> seed:int -> unit -> t
(** [rate] (default 8): one in [rate] obligations draws a fault;
    worker kills fire at a quarter of that rate. *)

val seed : t -> int
val kinds : t -> Fault.Plan.engine_kind list

val obl_fault : t -> id:string -> fault
(** Pure decision for the obligation-execution hook; the supervisor
    applies it per attempt and calls {!note} when it actually
    injects. *)

val note : t -> Fault.Plan.engine_kind -> unit
(** Count one actual injection (decision sites that fire internally —
    kills, file corruption, skew — count themselves). *)

val kill_worker : t -> site:string -> id:string -> bool
(** Should the worker at [site] ("pre-exec" / "post-exec") die before
    handling obligation [id]?  True at most once per (site, id). *)

val tear_pack : t -> path:string -> unit
(** Truncate the first pack file written this process (post-rename):
    the next [Cache.create] must evict it wholesale. *)

val skewed_source : t -> unit -> float
(** A {!Clock} source over {!Clock.real} that injects bounded,
    deterministic forward jumps (≤ 0.2 s cumulative).  Monotone. *)

val injected : t -> (Fault.Plan.engine_kind * int) list
(** Actual injection counts per kind (zero entries included). *)

val injected_total : t -> int
