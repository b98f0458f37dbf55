(** The lint catalogue and its findings.

    Four dataflow lints run over every MIRlight body (see {!Pass}):

    - [Encapsulation] — RData handles (locals whose type mentions
      [Ty.Opaque]) must not be dereferenced, field-projected, written
      through, or passed to a callee outside the owning layer's
      getter/setter set.
    - [Move_init] — use of a possibly-uninitialized or moved temporary.
    - [Unchecked_arith] — raw [Add]/[Sub]/[Mul] on word-typed operands
      in a body whose convention is checked arithmetic (it contains
      [Checked_binary] operations elsewhere).
    - [Unreachable_block] — a block unreachable from bb0 that still
      contains code (empty [Goto] blocks are lowering artifacts of
      [return]/[break] and are ignored).

    Three NLL-style borrow-checker lints run per body (see {!Borrow}
    and {!Borrow_lint}, scheduled by the engine as the "borrow" phase):

    - [Conflicting_borrow] — a mutable loan created while another loan
      of an overlapping place is still live (mut/mut or mut/shared).
    - [Dangling_handle] — a loan that outlives its borrowed storage
      ([Storage_dead]/[Drop] of the borrowed local, or a reference to a
      local escaping through the return value).
    - [Move_while_borrowed] — a place moved out while a live loan still
      covers it.

    Two interprocedural abstract-interpretation lints run per
    call-graph SCC (see {!Interval_lint} and {!Secret_flow}, scheduled
    by the engine):

    - [Interval_bounds] — array-index bounds certification, plus
      [Info]-severity certificates that discharge [Unchecked_arith]
      findings whose operand intervals provably cannot overflow.
    - [Secret_flow] — noninterference: enclave-secret state must not
      reach a primary-OS-observable location except through the
      marshalling buffer.

    One interprocedural points-to lint runs per call-graph SCC over
    Andersen footprint summaries (see {!Alias} and {!Alias_lint},
    scheduled by the engine as the "alias" phase):

    - [Alias_footprint] — a call passes two arguments that may alias
      to a callee whose certified footprint writes through both
      parameters.  The same pass emits [Info] certificates that
      discharge [Encapsulation]/[Move_init] findings at program points
      the interval interpretation proves unreachable, and
      [Encapsulation] call-site findings whose callee footprint
      provably never touches the handle argument. *)

type kind =
  | Encapsulation
  | Move_init
  | Unchecked_arith
  | Unreachable_block
  | Conflicting_borrow
  | Dangling_handle
  | Move_while_borrowed
  | Interval_bounds
  | Secret_flow
  | Alias_footprint

val all : kind list
(** The per-body dataflow lints, catalogue order. *)

val borrow : kind list
(** The per-body borrow-checker lints (engine phase "borrow"). *)

val interprocedural : kind list
(** The SCC-granular abstract-interpretation lints. *)

val alias : kind list
(** The SCC-granular points-to lint (engine phase "alias"). *)

val catalogue : kind list
(** [all @ borrow @ interprocedural @ alias]; also the presentation
    order of findings. *)

val to_string : kind -> string
val of_string : string -> (kind, string) result

val kinds_of_string : string -> (kind list, string) result
(** Parse a comma-separated selection of lint names and group
    selectors (["all"], ["body"], ["borrow"], ["interprocedural"],
    ["alias"]).  Unknown names are an [Error] naming the known lints
    and groups.  The result is deduplicated and in catalogue order so
    equal selections fingerprint identically. *)

type severity = Error | Info

type finding = {
  kind : kind;
  where : string;
  detail : string;
  severity : severity;
  discharged_by : string option;
}

val v :
  ?severity:severity -> ?discharged_by:string -> kind -> where:string ->
  string -> finding
(** Defaults: [severity = Error], no discharge. *)

val reconcile : finding list -> finding list
(** Drop every [Error] finding cancelled by an [Info] discharge
    certificate at the same kind and site (certificates stay, so the
    output still shows what was proved). *)

val finding_to_string : finding -> string

val sort : finding list -> finding list
(** Catalogue order, stable within a kind. *)
