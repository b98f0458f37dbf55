(** Page-table entries as plain 64-bit words (the implementation view).

    An entry packs a physical page address (bits [page_shift..56]) and
    flag bits (within the page-offset bits, positions given by the
    geometry).  These pure functions mirror the entry-manipulation
    methods of the Rust memory module (paper Sec. 4.1). *)

val empty : Mir.Word.t
(** The all-zero, non-present entry. *)

val make : Geometry.t -> pa:Mir.Word.t -> Flags.t -> Mir.Word.t
(** [pa]'s page-offset bits are discarded. *)

val addr : Geometry.t -> Mir.Word.t -> Mir.Word.t
(** The physical page address stored in the entry. *)

val flags : Geometry.t -> Mir.Word.t -> Flags.t
val is_present : Geometry.t -> Mir.Word.t -> bool
val is_huge : Geometry.t -> Mir.Word.t -> bool

val pp : Geometry.t -> Format.formatter -> Mir.Word.t -> unit
