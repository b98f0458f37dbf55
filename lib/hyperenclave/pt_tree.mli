(** Page tables, tree-shaped (high) specification.

    The high spec nests page tables directly inside entries instead of
    storing indirect physical pointers (paper Sec. 4.1): an entry is
    either absent, a terminal mapping, or the next-level table itself.
    The physical frame that stores each table is kept as {e ghost}
    data so the refinement relation to the flat view can be stated.

    The tree shape makes aliasing between tables unrepresentable —
    installing a mapping is a local change by construction — which is
    why the paper's invariant proofs work on this view. *)

type node =
  | Term of { pa : Mir.Word.t; flags : Flags.t }
      (** terminal mapping; at level 1 a page, above it a huge page *)
  | Table of { frame : int; entries : node option array }

type state = {
  geom : Geometry.t;
  layout : Layout.t;
  falloc : Frame_alloc.t;  (** ghost allocator, kept in lock-step with the low view *)
  root : node;  (** always a [Table] *)
}

val create : Geometry.t -> Layout.t -> Frame_alloc.t -> (state, string) result
(** Allocate a fresh empty root table. *)

val map_page :
  state -> va:Mir.Word.t -> pa:Mir.Word.t -> Flags.t -> (state, string) result

val map_huge :
  state -> va:Mir.Word.t -> pa:Mir.Word.t -> level:int -> Flags.t ->
  (state, string) result

val unmap_page : state -> va:Mir.Word.t -> (state, string) result

val query :
  state -> va:Mir.Word.t -> ((Mir.Word.t * Flags.t) option, string) result

val translate :
  state -> va:Mir.Word.t -> ((Mir.Word.t * Flags.t) option, string) result

val mappings : state -> (Mir.Word.t * Mir.Word.t * Flags.t) list
(** All [(va_page, pa_page, flags)], va-ordered, huge mappings expanded. *)

val wf : state -> (unit, string) result
(** Well-formedness: table frames distinct, allocated, and in the frame
    area; terminal [pa]s aligned to their level span; the huge flag set
    exactly on terminals above level 1 (the paper's [unused_inv] is
    unrepresentable by construction: an absent entry simply is [None]). *)

val node_equal : node -> node -> bool
val equal : state -> state -> bool
val pp : Format.formatter -> state -> unit
