(** Low specifications of the memory module.

    One functional specification per Rustlite function of
    {!Mem_source}, stated over the abstract state — the 'low specs' of
    paper Sec. 4.3, close enough to the code for per-function
    conformance checking while already hiding the MIR execution.  The
    OCaml model runs them too: {!Pt_flat}'s mutators and
    {!Hypercall}'s [create], [add_page] and [remove_page] call the
    entry points at the end of this interface, so the flat-to-tree
    refinement (Sec. 4.1) and the security phases step the semantics
    the code proofs check.

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

(** {2 The semantics on unencoded arguments}

    Each is the semantics its spec-table entry of the same name wraps,
    with the layout's constants read from [d]'s layout.  The second
    component is the code's status ({!Mem_source.status_ok} and its
    siblings); a failing call returns the state the code leaves,
    partial tables included.  [Error] means the spec is undefined on
    the input. *)

val create_table : Absdata.t -> (Absdata.t * Mir.Word.t, string) result
(** A fresh zeroed table frame, or the frame count (the code's
    [NFRAMES]) with the state unchanged when no frame is free. *)

val map_page :
  Absdata.t -> root:Mir.Word.t -> va:Mir.Word.t -> pa:Mir.Word.t -> flags:Mir.Word.t ->
  (Absdata.t * Mir.Word.t, string) result

val unmap_page :
  Absdata.t -> root:Mir.Word.t -> va:Mir.Word.t -> (Absdata.t * Mir.Word.t, string) result

val hc_create :
  Absdata.t -> elrange_base:Mir.Word.t -> elrange_pages:Mir.Word.t -> mbuf_va:Mir.Word.t ->
  (Absdata.t * Mir.Word.t * Mir.Word.t * Mir.Word.t, string) result
(** Status, GPT root and EPT root (both 0 on failure). *)

val add_page :
  Absdata.t -> Enclave.t -> va:Mir.Word.t -> (Absdata.t * Mir.Word.t, string) result

val remove_page :
  Absdata.t -> Enclave.t -> va:Mir.Word.t -> (Absdata.t * Mir.Word.t, string) result
