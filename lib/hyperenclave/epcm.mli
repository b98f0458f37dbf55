(** Enclave Page Cache Map.

    RustMonitor records, for every EPC page, whether it is free or
    owned by an enclave, and at which enclave-linear address it was
    added (paper Sec. 2.1).  The EPCM invariant of Sec. 5.2 requires
    every enclave page-table mapping into the EPC to have a matching
    entry here. *)

type page_state =
  | Free
  | Valid of { eid : int; va : Mir.Word.t }
      (** owned by enclave [eid], mapped at enclave-linear address [va] *)

val page_state_equal : page_state -> page_state -> bool
val pp_page_state : Format.formatter -> page_state -> unit

type t

val create : npages:int -> t
val npages : t -> int
val get : t -> int -> (page_state, string) result
val set : t -> int -> page_state -> (t, string) result

val find_free : t -> int option
(** Lowest free EPC page index. *)

val pages_of_enclave : t -> int -> (int * Mir.Word.t) list
(** [(epc page index, va)] pairs owned by an enclave. *)

val valid_count : t -> int
val free_count : t -> int
val equal : t -> t -> bool
val fold : (int -> page_state -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every page index in ascending order. *)

val fold_valid : (int -> eid:int -> va:Mir.Word.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the [Valid] pages only, in ascending order: the cost is
    in the owned pages, not in [npages]. *)
