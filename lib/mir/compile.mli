(** Closure-compiled MIRlight execution.

    Translates each {!Syntax.body} once into a tree of OCaml closures —
    temps as integer-indexed slots instead of [StrMap] lookups, basic
    blocks pre-split into statement arrays, places and rvalues
    pre-resolved down to their dynamic parts — so the code-proof phase
    compiles once and executes thousands of generated states against
    the compiled form.

    {!Interp} remains the reference semantics.  {!call} is
    observationally identical to {!Interp.call}: same outcome (abs,
    mem, ret, steps — including frame-id assignment order, which is
    visible in [mem] through [Path.Local]), same fuel accounting, and
    the same error classification with identical messages.  The
    differential suite in [test/differential] pins this equivalence on
    the full seed stack and the chaos fixtures.

    Primitives are looked up by name at call time from the compiled
    environment, exactly like {!Interp}; only the {e linkage} of each
    call site (override / primitive / body / undefined) is baked in.  A
    [map_prims]-wrapped environment therefore compiles to the same
    bodies — fault injection keeps working, and a shared {!cache}
    makes those compilations near-free. *)

type 'abs t
(** A compiled environment: every body of the program in closure form,
    plus the primitive and override tables. *)

type 'abs override = {
  ov_name : string;
  ov_exec :
    'abs -> 'abs Mem.t -> 'abs Value.t list -> ('abs * 'abs Value.t, string) result;
}
(** A specification stub linked {e over} a body: every call site whose
    callee has an override executes [ov_exec] instead of entering the
    callee (one terminator tick, like a primitive — no callee frame is
    allocated).  Unlike {!Interp.prim}, the stub receives the
    object-view memory, so it can resolve pointer arguments (a
    method's [self]) to the pointee value a by-value specification
    expects.  This is the linkage behind compositional verification:
    once a callee is proven against its spec, callers run the spec. *)

type 'abs cache
(** A shared memo table keyed by body digest + call-site linkage.
    Share one per abstract-state type to compile each body exactly once
    across environments. *)

val cache : unit -> 'abs cache

val compile : ?cache:'abs cache -> ?overrides:'abs override list -> 'abs Interp.env -> 'abs t
(** Compile every body of the environment's program.  With [cache],
    bodies whose digest and linkage match a previous compilation are
    reused; override linkage is part of the memo key, so the same
    shared cache serves monolithic and override-composed environments
    without mixing their compilations.  Overrides shadow primitives
    and bodies at call sites, but {!call}'s entry function always runs
    its own body — proving a function never stubs the function itself. *)

val call :
  ?fuel:int ->
  'abs t ->
  abs:'abs ->
  mem:'abs Mem.t ->
  string ->
  'abs Value.t list ->
  ('abs Interp.outcome, Interp.error) result
(** Drop-in replacement for {!Interp.call} on a compiled environment.
    Default fuel is {!Interp.default_fuel}. *)
