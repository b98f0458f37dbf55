(** The page-table invariants of paper Sec. 5.2, as executable checks
    over the monitor's abstract state.  {!check} runs five of them in
    this order, and a failure is prefixed with the invariant's name:

    - [elrange-isolation]: ELRANGE addresses of two different enclaves
      never reach the same physical page.
    - [mbuf-invariant]: a physical page reachable both by an enclave
      and by the primary OS must be a marshalling-buffer page, reached
      through the enclave's marshalling window.
    - [epcm-invariant]: every enclave mapping into the EPC is recorded
      in the EPCM with the right owner and linear address (no covert
      mappings).
    - [enclave-invariants]: per enclave — a virtual address maps into
      the EPC iff it is in the ELRANGE; ELRANGE and marshalling window
      are disjoint; no huge pages anywhere in the enclave's tables.
    - [tables-protected]: no guest mapping (OS or enclave) reaches the
      monitor image or the frame area, so the page tables themselves
      cannot be touched.

    One {!check} walks each enclave's composed GPT∘EPT map and the
    OS's EPT map at most once and hands the results to all five; no
    result outlives the call. *)

val no_huge : Hyperenclave.Absdata.t -> root:int -> (unit, string) result
(** No huge terminal anywhere in the table rooted at [root]. *)

val check : Hyperenclave.Absdata.t -> (unit, string) result
(** All invariants, first failure reported as ["name: detail"]. *)

val check_reachable :
  states:(string * State.t) list ->
  actions:Transition.action list ->
  Mirverif.Report.t * Mirverif.Report.t
(** Phase 6 on a batch of labelled states: ["invariants on reachable
    states"] runs {!check} on each state's monitor (a failure's case is
    the state's label), and ["invariant preservation"] on the monitor
    of each enabled successor [Transition.step st a], for every action
    in order (a disabled step is a skip; a failure's case is
    ["label / action"]).  A successor whose monitor is the pre-state's
    own object ([==]) reuses the pre-state's verdict, which is exact
    because {!check} reads only the monitor; a reused failure carries
    the pre-state's reason under the successor's own case. *)
