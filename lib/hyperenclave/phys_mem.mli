(** Flat physical memory: the bottom-layer view.

    The trusted layer represents physical memory as a flat array of
    64-bit words (paper Sec. 3.4, case 2 / Sec. 4.1).  It is a sparse
    persistent map — unwritten words read as zero, matching the
    zeroed-RAM boot state — so machine states can be snapshotted and
    compared cheaply by the checkers.

    {b Representation.}  A big-endian Patricia tree from word index
    ([address / 8]) to value that binds exactly the nonzero words: a
    word written back to zero is removed, and the tree's shape depends
    only on its keys, so equal contents give structurally equal trees
    and every fold runs in address order.  {!read64} follows one path
    of integer tests (a node per index bit at most, about [log n] for
    [n] nonzero words) and allocates only its [Ok]; {!write64} copies
    that path.  A range operation costs a path plus the nonzero words
    inside the range, not the words of the range: {!zero_range} drops
    whole subtrees.  {!equal} skips physically equal subtrees.  Errors
    are formatted only when an access fails. *)

type t

val create : limit:Mir.Word.t -> t
(** Addressable range is [\[0, limit)]; [limit] must be 8-aligned. *)

val limit : t -> Mir.Word.t

val read64 : t -> Mir.Word.t -> (Mir.Word.t, string) result
(** Fails when the address is unaligned or out of range. *)

val read64_unchecked : t -> Mir.Word.t -> Mir.Word.t
(** {!read64} of an address the caller knows to be 8-aligned and below
    the limit (for instance an entry of a checked table frame). *)

val write64 : t -> Mir.Word.t -> Mir.Word.t -> (t, string) result
(** Returns the same memory when the word already holds the value. *)

val zero_range : t -> Mir.Word.t -> bytes_len:int -> (t, string) result
(** Clear [bytes_len] bytes (8-aligned) starting at an 8-aligned
    address; used to scrub freshly allocated frames and EPC pages.
    Fails like the first failing {!write64} of a word-by-word loop;
    costs in proportion to the nonzero words it clears. *)

val copy_range : t -> src:Mir.Word.t -> dst:Mir.Word.t -> bytes_len:int -> (t, string) result

val read_words : t -> Mir.Word.t -> count:int -> (Mir.Word.t list, string) result
(** The [count] words at [addr], [addr + 8], ..., in address order, or
    the error of the first of them that {!read64} rejects. *)

val equal_range : t -> t -> Mir.Word.t -> bytes_len:int -> bool
(** Word-wise agreement of the two memories on a range; false when a
    word of the range cannot be read from either memory. *)

val equal : t -> t -> bool
val nonzero_words : t -> (Mir.Word.t * Mir.Word.t) list
(** [(address, value)] pairs of all nonzero words, address-ordered. *)

val fold_nonzero : (Mir.Word.t -> Mir.Word.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the nonzero words as [f address value], in address
    order. *)

val fold_nonzero_range :
  t -> Mir.Word.t -> bytes_len:int -> (Mir.Word.t -> Mir.Word.t -> 'a -> 'a) -> 'a -> 'a
(** {!fold_nonzero} restricted to the words of [bytes_len] bytes at the
    8-aligned address [addr]. *)
