(** Interprocedural Andersen-style points-to analysis.

    Inclusion-based, flow-insensitive per body, summarized per
    call-graph SCC in callees-first order.  Produces per-function
    {e certified footprints} — the abstract locations a function may
    read or write through a dereference, with callee footprints
    substituted actual-for-formal — plus return-value points-to sets
    and parameter escape sets.  {!Alias_lint} turns these into
    findings and discharge certificates. *)

module StrMap : Map.S with type key = string

(** Object-granular abstract locations. *)
type loc =
  | Lparam of int  (** pointee of the i-th formal parameter *)
  | Llocal of string  (** storage of a local of the analyzed function *)
  | Lglobal of string  (** a [Mem] global root *)
  | Labs  (** trusted-primitive abstract state *)
  | Lunknown

module LocSet : Set.S with type elt = loc

val loc_to_string : loc -> string
val locs_to_string : LocSet.t -> string

type fp = { reads : LocSet.t; writes : LocSet.t }

val fp_empty : fp

val exact : fp -> bool
(** No {!Lunknown} on either side: the footprint is a proof, not a
    guess, and may back certificates. *)

module IntSet : Set.S with type elt = int

type summary = { fp : fp; ret : LocSet.t; esc : IntSet.t }

val summary_bot : summary

type info = { summary : summary; vars : LocSet.t StrMap.t }

val witness : LocSet.t -> LocSet.t -> loc option
(** A definite common location (never {!Lunknown}); what the
    Error-severity lint requires before it fires. *)

val analyze :
  ?prim:(string -> summary option) -> Mir.Syntax.program -> info StrMap.t
(** Whole-program fixpoint.  [prim] models extern callees (e.g. the
    trusted primitives as {!Labs} effects); an unmodeled extern makes
    the caller's footprint inexact. *)

val footprint : info StrMap.t -> string -> fp
(** The function's certified footprint; fully unknown when the
    function was not analyzed. *)
