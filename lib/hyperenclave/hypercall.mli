(** Hypercall specifications (the top-level functional model).

    These are the pure functions on the abstract state that the
    security proofs quantify over (paper Sec. 5.1): [create] and
    [add_page] emulate the privileged SGX instructions ECREATE/EADD,
    [init_done] emulates EINIT.  [enter]/[exit] do not touch page
    tables and are modelled in {!Security.Transition}.

    [create], [add_page] and [remove_page] are the low specs of the
    verified code's [hc_create], [Enclave::add_page] and
    [Enclave::remove_page] ({!Mem_spec}), the semantics phase 4 holds
    the code to.  The model adds two things: [create] registers the
    new enclave, and a call that fails rolls back.

    Failure semantics are transactional: a hypercall that returns a
    non-[Success] status leaves the abstract state unchanged (callers
    observe only the status code).  The code does not roll back: a
    call that fails part-way keeps what it changed, frames spent on
    partial tables say (ROADMAP item 14). *)

type status =
  | Success
  | Invalid_param
  | No_memory
  | Bad_state  (** lifecycle violation, e.g. EADD after EINIT *)

val status_code : status -> Mir.Word.t
(** Encoding used by the MIR implementation: 0, 1, 2, 3. *)

val status_of_code : Mir.Word.t -> status option
val status_equal : status -> status -> bool
val pp_status : Format.formatter -> status -> unit

type 'a outcome = { d : Absdata.t; status : status; value : 'a }

val create :
  Absdata.t -> elrange_base:Mir.Word.t -> elrange_pages:int ->
  mbuf_va:Mir.Word.t -> int outcome
(** Create an enclave: allocate GPT and EPT roots, install the fixed
    marshalling-buffer mapping (identity in the GPT; window onto the
    physical mbuf region in the EPT), register the enclave as
    [Created].  Returns the new enclave id.  A negative
    [elrange_pages] is [Invalid_param]: the code's count is a [u64]. *)

val add_page : Absdata.t -> eid:int -> va:Mir.Word.t -> unit outcome
(** Add a zeroed EPC page at [va] (must lie in the ELRANGE of a
    [Created] enclave): pick the lowest free EPC page, map [va]
    identity in the GPT and [va -> epc page] in the EPT, and record
    the owner in the EPCM. *)

val remove_page : Absdata.t -> eid:int -> va:Mir.Word.t -> unit outcome
(** EREMOVE (extension): tear down the mappings of an EPC page whose
    EPCM entry matches [(eid, va)], scrub it, and mark it free.  Only
    legal while the enclave is still [Created]. *)

val init_done : Absdata.t -> eid:int -> unit outcome
(** Seal the enclave ([Created] to [Initialized]); no further pages
    can be added. *)
