(** Small-step operational semantics for MIRlight.

    The machine follows CompCert's style (paper Sec. 3.1): a
    configuration carries a call stack, the object memory, and the CCAL
    abstract state ['abs]; {!step} executes one statement or
    terminator.  {!call} is the reflexive-transitive closure with fuel.

    Layering hook: {e primitives} are functional specifications
    [args -> abs -> (abs, ret)] registered by name.  During a layer-N
    code check, every call to a layer-(<N) function resolves to its
    primitive (specification) rather than to its body — primitives
    shadow bodies — which is exactly how CCAL encapsulates lower layers
    (paper Sec. 3.4). *)

type 'abs prim = {
  prim_name : string;
  prim_exec : 'abs -> 'abs Value.t list -> ('abs * 'abs Value.t, string) result;
}

type 'abs env
(** A program plus its primitive environment. *)

val env : prims:'abs prim list -> Syntax.program -> 'abs env
val env_prims : 'abs env -> 'abs prim list
val env_program : 'abs env -> Syntax.program

val map_prims : ('abs prim -> 'abs prim) -> 'abs env -> 'abs env
(** Rewrite every registered primitive, keeping the program unchanged.
    The layer-boundary hook the fault-injection subsystem uses: a
    wrapper can make a lower layer's specification fail (resource
    exhaustion, transient fault) without forking the semantics. *)

type error =
  | Fault of { fn : string; block : Syntax.label; msg : string }
      (** stuck execution: type confusion, undefined variable, RData
          dereference, division by zero, unreachable reached, ... *)
  | Assert_failed of { fn : string; block : Syntax.label; msg : string }
  | Out_of_fuel

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type 'abs outcome = {
  abs : 'abs;  (** final abstract state *)
  mem : 'abs Mem.t;  (** final object memory *)
  ret : 'abs Value.t;
  steps : int;  (** statements + terminators executed *)
}

val default_fuel : int
(** [1_000_000] steps; the default budget of {!call}. *)

val call :
  ?fuel:int ->
  'abs env ->
  abs:'abs ->
  mem:'abs Mem.t ->
  string ->
  'abs Value.t list ->
  ('abs outcome, error) result
(** [call env ~abs ~mem fn args] runs function [fn] to completion.
    Default fuel is [1_000_000] steps. *)

(** {1 Exposed small-step interface}

    Used by the semantics tests to check confluence-free determinism
    and step accounting; [call] is its transitive closure. *)

type 'abs config

val start :
  'abs env -> abs:'abs -> mem:'abs Mem.t -> string -> 'abs Value.t list ->
  ('abs config, error) result

type 'abs status = Running of 'abs config | Finished of 'abs outcome

val step : 'abs config -> ('abs status, error) result

val config_depth : 'abs config -> int
(** Current call-stack depth. *)

val config_function : 'abs config -> string option
(** Name of the function executing on top of the stack. *)

val config_block : 'abs config -> Syntax.label option
(** The block the top frame is executing.  Read-only: block-coverage
    tests record it between {!step}s. *)
