(** Flat physical memory: the bottom-layer view.

    The trusted layer represents physical memory as a flat array of
    64-bit words (paper Sec. 3.4, case 2 / Sec. 4.1).  It is a sparse
    persistent map — unwritten words read as zero, matching the
    zeroed-RAM boot state — so machine states can be snapshotted and
    compared cheaply by the checkers. *)

type t

val create : limit:Mir.Word.t -> t
(** Addressable range is [\[0, limit)]; [limit] must be 8-aligned. *)

val limit : t -> Mir.Word.t

val read64 : t -> Mir.Word.t -> (Mir.Word.t, string) result
(** Fails when the address is unaligned or out of range. *)

val write64 : t -> Mir.Word.t -> Mir.Word.t -> (t, string) result

val zero_range : t -> Mir.Word.t -> bytes_len:int -> (t, string) result
(** Clear [bytes_len] bytes (8-aligned) starting at an 8-aligned
    address; used to scrub freshly allocated frames and EPC pages. *)

val copy_range : t -> src:Mir.Word.t -> dst:Mir.Word.t -> bytes_len:int -> (t, string) result

val equal_range : t -> t -> Mir.Word.t -> bytes_len:int -> bool
(** Word-wise agreement of the two memories on a range; the NI
    observation function compares page contents with this. *)

val equal : t -> t -> bool
val nonzero_words : t -> (Mir.Word.t * Mir.Word.t) list
(** [(address, value)] pairs of all nonzero words, address-ordered. *)

val fold_nonzero : (Mir.Word.t -> Mir.Word.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the nonzero words as [f address value], in address
    order. *)
