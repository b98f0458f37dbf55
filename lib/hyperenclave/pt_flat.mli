(** Page tables, flat (low) specification.

    Operations on page tables as they exist in physical memory: tables
    are frames of the monitor's frame area, entries are 64-bit words
    read and written through {!Phys_mem} (paper Sec. 4.1, "low spec").

    The mutators {!create_table}, {!map_page} and {!unmap_page} are the
    low specs of the verified code's functions of the same names
    ({!Mem_spec}), the semantics phase 4 holds the code to: status 0 is
    [Ok], any other status an [Error] that names it.  Like the code,
    they do not check that the root frame is allocated.  The read side
    ({!walk}, {!query}, {!translate}, {!mappings}, {!table_frames}, the
    entry accessors) and {!map_huge} are this model's own; the code
    has no huge mapping.

    A structural property is enforced during every read-side walk: a
    non-terminal entry must point at a frame {e inside the frame area}.
    A table that escapes the frame area — e.g. the shallow-copied OS
    tables of the bug discussed in Sec. 4.1, whose level-3 tables lived
    in guest-controlled memory — makes the walk fail, which is the
    executable counterpart of "such a program would be impossible to
    prove in our setting". *)

type walk_result =
  | Missing of int  (** no mapping; absent entry found at this level *)
  | Terminal of {
      level : int;  (** 1 for a normal page; >1 for a huge page *)
      frame : int;  (** table frame holding the terminal entry *)
      index : int;
      entry : Mir.Word.t;
    }

val entry_pa : Absdata.t -> frame:int -> index:int -> (Mir.Word.t, string) result
(** Physical address of entry [index] of table [frame]. *)

val read_entry : Absdata.t -> frame:int -> index:int -> (Mir.Word.t, string) result

val fold_present :
  Absdata.t -> frame:int -> (int -> Mir.Word.t -> 'a -> 'a) -> 'a -> ('a, string) result
(** [f index entry] over the present entries of table [frame], in index
    order, once the frame passes the check {!read_entry} makes (else
    its error).  The cost is in the nonzero entries, not the table
    size. *)

val write_entry :
  Absdata.t -> frame:int -> index:int -> Mir.Word.t -> (Absdata.t, string) result

val create_table : Absdata.t -> (Absdata.t * int, string) result
(** Allocate and zero a fresh table frame (the code's [create_table]);
    fails when no frame is free. *)

val walk : Absdata.t -> root:int -> Mir.Word.t -> (walk_result, string) result
(** Follow existing entries only; never allocates.  Fails on malformed
    tables (next-pointer outside the frame area, va out of range). *)

val map_page :
  Absdata.t -> root:int -> va:Mir.Word.t -> pa:Mir.Word.t -> Flags.t ->
  (Absdata.t, string) result
(** Install a level-1 mapping (the code's [map_page]), allocating the
    missing intermediate tables.  Requires page-aligned [va]/[pa], [va]
    translatable, flags present and not huge; fails if already mapped,
    if the path crosses a huge or malformed entry, or if a table
    cannot be allocated.  [pa] is masked to the 57-bit address field,
    as the code's [pte_make] does.  Whether [pa] names host- or
    guest-physical memory is the caller's concern (GPTs store GPAs). *)

val map_huge :
  Absdata.t -> root:int -> va:Mir.Word.t -> pa:Mir.Word.t -> level:int ->
  Flags.t -> (Absdata.t, string) result
(** Install a huge mapping at [level > 1] ([pa] aligned to the level
    span).  Enclave tables never contain these (Sec. 5.2); the normal
    VM's EPT may. *)

val unmap_page : Absdata.t -> root:int -> va:Mir.Word.t -> (Absdata.t, string) result
(** Clear the terminal entry covering [va] (the code's [unmap_page]);
    fails if unmapped. *)

val query :
  Absdata.t -> root:int -> va:Mir.Word.t ->
  ((Mir.Word.t * Flags.t) option, string) result
(** Mapped physical page base (of [va]'s page) and flags, or [None].
    This is the page-walk the security model reuses for [mem_load] /
    [mem_store] (paper Sec. 5.1). *)

val translate :
  Absdata.t -> root:int -> va:Mir.Word.t ->
  ((Mir.Word.t * Flags.t) option, string) result
(** Like {!query} but returns the full translated byte address
    (page base plus offset). *)

val mappings :
  Absdata.t -> root:int -> ((Mir.Word.t * Mir.Word.t * Flags.t) list, string) result
(** All [(va_page, pa_page, flags)] terminal mappings, in va order;
    huge mappings are expanded to their constituent pages. *)

val table_frames : Absdata.t -> root:int -> (int list, string) result
(** Every frame-area frame reachable from the root (including it),
    in discovery order; fails on malformed tables or sharing (a frame
    reachable twice — tables must form a tree). *)
