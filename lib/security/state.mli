(** Machine states of the abstract transition system (paper Sec. 5.1).

    A state is the monitor's abstract data plus the CPU-visible pieces
    the security proofs talk about: which principal is running, its
    register file, the saved register contexts of the others, and the
    data oracle.

    A state is a persistent value, its register arrays included: no
    array is written in place once it is in a state ({!with_reg}
    copies first), so states and the defaults below may share them. *)

val nregs : int
(** Size of the modelled register file. *)

type regs = Mir.Word.t array

val zero_regs : unit -> regs
(** A fresh all-zero register file, the caller's to write. *)

val regs_equal : regs -> regs -> bool
val pp_regs : Format.formatter -> regs -> unit

type t = {
  mon : Hyperenclave.Absdata.t;
  active : Principal.t;
  regs : regs;  (** registers of the active principal *)
  ctx : regs Principal.Map.t;  (** saved contexts of inactive principals *)
  oracles : Oracle.t Principal.Map.t;
      (** per-principal declassification streams: a marshalling-buffer
          read consumes from the reader's own stream, so other
          principals' reads are invisible (Sec. 5.4) *)
  tlb : Tlb.t;
      (** tagged translation cache; consistent by construction as long
          as mapping-removing hypercalls flush (see {!Tlb}) *)
}

val boot : Hyperenclave.Layout.t -> t
(** Booted monitor, primary OS active with zeroed registers. *)

val saved_ctx : t -> Principal.t -> regs
(** A principal's saved context; for a principal with none, one shared
    all-zero array, which must not be written. *)

val oracle_of : t -> Principal.t -> Oracle.t
(** A principal's oracle stream; for a principal that never used one,
    one shared never-used stream ([Oracle.create ()]). *)

val take_oracle : t -> Principal.t -> Mir.Word.t * t

val with_reg : t -> int -> Mir.Word.t -> (t, string) result
val reg : t -> int -> (Mir.Word.t, string) result

val equal : t -> t -> bool
(** Structural equality, with an absent saved context or oracle equal
    to its default ({!saved_ctx}, {!oracle_of}), as the model checker's
    canonical state keys treat them. *)

val pp : Format.formatter -> t -> unit
