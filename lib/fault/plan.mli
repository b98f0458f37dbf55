(** Fault plans: the perturbations the chaos driver can inject.

    Each constructor names one failure mode the monitor must degrade
    gracefully under — resource exhaustion, memory corruption in the
    structures the paper's invariants protect, adversarial cache and
    oracle behaviour, and truncated hypercall sequences.  Faults are
    descriptions; {!Inject.apply} gives them meaning on a machine
    state, and {!Chaos} interleaves them with transition-system
    actions.

    Parameters are raw integers reduced modulo whatever is available
    in the state at injection time (tables present, EPC pages, cached
    translations), so a plan drawn from a seed stays meaningful as the
    state evolves — and replays identically, which the counterexample
    shrinker relies on. *)

type t =
  | Exhaust_frames
      (** Drain the frame allocator: every later page-table allocation
          must fail with [No_memory], transactionally. *)
  | Flip_pt_bit of { table : int; index : int; bit : int }
      (** Flip one bit of one entry word in a reachable page table
          ([table] indexes the reachable-frame list, modulo). *)
  | Flip_bitmap_bit of { frame : int }
      (** Flip frame [frame mod nframes]'s bit in the allocator
          bitmap — spuriously freeing a live table frame or leaking a
          free one. *)
  | Corrupt_epcm of { page : int; state : Hyperenclave.Epcm.page_state }
      (** Overwrite an EPCM entry with an arbitrary ownership record. *)
  | Clobber_oracle of { who : Security.Principal.t; seed : int }
      (** Replace a principal's declassification oracle with an
          adversarial stream. *)
  | Tlb_prefetch of { pick : int }
      (** Speculatively cache a currently-valid enclave translation
          ([pick] indexes the valid-translation list, modulo) — the
          hardware behaviour that turns a missing flush into a stale
          entry. *)
  | Truncate
      (** Cut the trace short here: the tail of the hypercall sequence
          is lost (crashed caller). *)

type kind =
  | Exhaustion
  | Pt_bitflip
  | Bitmap_bitflip
  | Epcm_corruption
  | Oracle
  | Tlb
  | Truncation

val kind_of : t -> kind
val all_kinds : kind list
val kind_to_string : kind -> string

val kinds_of_string :
  what:string -> all:'a list -> to_string:('a -> string) -> string ->
  ('a list, string) result
(** The [--faults] / [--engine-faults] syntax, for either vocabulary:
    ["all"] (every kind of [all]), or comma-separated names from [all]
    in order.  An unknown name or an empty list is an [Error]; its
    message calls a name a [what] (e.g. ["fault kind"]) and quotes the
    unknown one. *)

(** {1 Engine-level fault vocabulary}

    Faults against the checker itself (the supervised obligation pool
    and its proof cache) rather than the checked monitor.  Injected by
    [Engine.Engine_chaos] at named hook points; named here so both
    chaos harnesses share one vocabulary and one CLI syntax. *)

type engine_kind =
  | Obl_crash  (** an obligation raises mid-run *)
  | Obl_hang  (** an obligation stops making progress until its deadline *)
  | Worker_kill
      (** a worker domain dies between obligations or after computing a
          result but before publishing it *)
  | Torn_pack  (** a cache pack file is truncated mid-write *)
  | Clock_skew  (** the engine clock jumps forward in small steps *)

val all_engine_kinds : engine_kind list
val engine_kind_to_string : engine_kind -> string

val corrupts : t -> bool
(** Whether the fault puts the monitor state outside the reachable
    set: after a corrupting fault the Sec. 5.2 invariants are no
    longer guaranteed, and the chaos driver stops checking them
    (graceful degradation and hypercall transactionality remain in
    force). *)

val breaks_translation : t -> bool
(** The subset of {!corrupts} that can change what a page walk
    returns (page-table and allocator-bitmap bit flips): only these
    disarm the TLB-consistency check.  EPCM corruption is metadata
    only — translations, and hence the TLB check, survive it. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val random :
  Check.Rng.t -> Hyperenclave.Layout.t -> kinds:kind list ->
  t * Check.Rng.t
(** Draw a fault whose kind is in [kinds] (must be non-empty). *)
