(** Frame allocator for the monitor's frame area.

    HyperEnclave allocates every page-table frame from a private pool
    in secure memory; the allocator is a bitmap returning the
    lowest-indexed free frame.  This module is the {e specification};
    the Rustlite implementation in {!Mem_module} is checked against
    it.

    {b Representation.}  The bitmap itself, in the code's own 64-bit
    words ({!bitmap_word}), with every bit at or beyond [nframes]
    clear, so a freed frame is exactly a frame never allocated.  A
    value is immutable: an update copies the [ceil (nframes / 64)]
    words once and writes one.  {!is_allocated} and {!bitmap_word} are
    one read, {!alloc} scans words for the lowest clear bit, {!equal}
    compares words, and the counts and {!allocated_list} cost one pass
    over the words. *)

type t

val create : nframes:int -> t
val nframes : t -> int

val alloc : t -> (t * int, string) result
(** Lowest free frame; fails when the pool is exhausted. *)

val free : t -> int -> (t, string) result
(** Fails on out-of-range or double free. *)

val is_allocated : t -> int -> bool

val bitmap_words : t -> int
(** Number of 64-bit words in the bitmap view, [ceil (nframes / 64)]. *)

val bitmap_word : t -> int -> (Mir.Word.t, string) result
(** The bitmap as raw words (bit [i mod 64] of word [i / 64] set iff
    frame [i] is allocated) — the representation the trusted layer
    exposes to the Rustlite allocator code. *)

val set_bitmap_word : t -> int -> Mir.Word.t -> (t, string) result
(** Fails if bits beyond [nframes] are set; returns the same allocator
    when the word is unchanged. *)

val allocated_count : t -> int
val free_count : t -> int
val allocated_list : t -> int list
(** Allocated frames, ascending. *)

val fold_allocated : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the allocated frames in ascending order. *)

val equal : t -> t -> bool
