(** Low specifications of the memory module.

    One functional specification per Rustlite function of
    {!Mem_source}, stated over the abstract state — the 'low specs' of
    paper Sec. 4.3, close enough to the code for per-function
    conformance checking while already hiding the MIR execution.  The
    flat-to-tree refinement (Sec. 4.1) then relates a subset of these
    to the {!Pt_tree} high view; {!Pt_flat} plays the intermediate
    role.

    Specs are keyed by the exact MIR symbol names, [Enclave::add_page]
    included.  A spec returning [Error] is undefined on that input
    (precondition violation): the corresponding code execution faults
    there too, and conformance checks skip the case. *)

type t = { layer : string; spec : Absdata.t Mirverif.Spec.t }

val all : Layout.t -> t list
(** Every function's spec, tagged with the layer that owns it, bottom
    layer first.  Built once per layout, like the lookups below. *)

val layer_names : string list
(** Bottom-first order of the 15 layers, ["Trusted"] to
    ["IsolationModel"]. *)

val lookup : Layout.t -> string -> t option
(** The function's tagged spec, from a per-layout name index. *)

val find : Layout.t -> string -> Absdata.t Mirverif.Spec.t option
(** The spec part of {!lookup}. *)

val functions_of_layer : Layout.t -> string -> string list
(** The functions a layer owns, in {!all} order. *)

val enclave_to_value : Enclave.t -> 'abs Mir.Value.t
(** Encode an {!Enclave.t} as the [Enclave] struct the Rustlite code
    declares (field order matters). *)
