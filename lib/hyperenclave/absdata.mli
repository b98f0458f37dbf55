(** The monitor's abstract state (the CCAL "abstract data").

    This is the ['abs] every layer's specifications act on: the flat
    physical memory (where page tables live), the frame allocator, the
    EPCM, per-enclave metadata, and the normal VM's EPT root.  The
    security model's machine states wrap this record with the
    CPU-visible pieces (registers, active principal). *)

module IntMap : Map.S with type key = int

type t = {
  layout : Layout.t;
  phys : Phys_mem.t;
  falloc : Frame_alloc.t;
  epcm : Epcm.t;
  enclaves : Enclave.t IntMap.t;
  next_eid : int;
  os_ept_root : int option;  (** normal VM EPT, installed by boot *)
}

val create : Layout.t -> t
(** Pristine state: zeroed memory, empty allocator and EPCM, no
    enclaves, no OS EPT (see {!Boot.boot} for the booted state). *)

val geom : t -> Geometry.t

val find_enclave : t -> int -> (Enclave.t, string) result
val update_enclave : t -> Enclave.t -> t
val enclave_ids : t -> int list
val enclave_count : t -> int

val equal : t -> t -> bool
(** Structural equality of the full abstract state, used as the
    abstract-state equivalence in refinement checks.  Physically equal
    arguments are equal at once. *)

val hash : t -> int
(** A hash of the contents {!equal} compares: [equal a b] implies
    [hash a = hash b]. *)

val pp : Format.formatter -> t -> unit
