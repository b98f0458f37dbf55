(** Certified abstraction layers.

    A layer bundles the MIR bodies implemented at that level with the
    functional specifications it exports upward.  A {e stack} is the
    bottom-first list of layers; the design of HyperEnclave guarantees
    there are no calls from lower layers into higher ones (paper
    Sec. 3.4), which {!check_stratified} re-verifies syntactically.

    When checking the code of layer [L], calls to functions of layers
    below [L] are resolved to their specifications (primitives), and
    calls within [L] run the callee's body — {!env_for} builds exactly
    that interpreter environment. *)

type 'abs t = {
  name : string;
  exports : 'abs Spec.t list;
      (** the layer interface: specs for every function callable from
          above (including specs of this layer's own code) *)
  code : Mir.Syntax.body list;
      (** bodies verified as part of this layer; empty for the trusted
          bottom layer, whose exports are axioms *)
}

val make : name:string -> exports:'abs Spec.t list -> code:Mir.Syntax.body list -> 'abs t

type 'abs stack = 'abs t list
(** Bottom layer first. *)

val find : 'abs stack -> string -> 'abs t option

val interface_below : 'abs stack -> layer:string -> 'abs Spec.t list
(** All exports of layers strictly below [layer].  If two layers export
    the same name, the higher one wins (CCAL overlay order). *)

val env_for : 'abs stack -> layer:string -> 'abs Mir.Interp.env
(** Interpreter environment for checking [layer]'s code: programs are
    the layer's own bodies, primitives are {!interface_below}. *)

val env_on_top : 'abs stack -> 'abs Mir.Interp.env
(** Environment seen by a client sitting above the whole stack: no
    bodies, every export of every layer available as a primitive
    (higher layers shadowing lower ones). *)

val calls_of_body : Mir.Syntax.body -> string list
(** Callee names of every [Call] terminator in the body, in block
    order (with duplicates).  The syntactic call-graph edge set used by
    {!check_stratified} and by the engine's override-composition DAG. *)

type stratification_issue = {
  layer : string;
  body : string;
  callee : string;
  detail : string;
}

val check_stratified : 'abs stack -> stratification_issue list
(** Verifies the no-upcall property: every call in a layer's code
    resolves within the same layer or to an export of a lower layer. *)

val pp_stratification_issue : Format.formatter -> stratification_issue -> unit
