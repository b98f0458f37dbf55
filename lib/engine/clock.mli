(** The engine's single time source.

    All schedule timestamps ([Pool.exec]'s [started]/[finished], the
    pool's wall-clock origin) come from {!now}, so swapping the clock —
    for deterministic tests, or for a different OS clock — happens in
    one place.  The default source is [Unix.gettimeofday] behind a
    monotonic clamp: the published time never runs backwards, even if
    the wall clock steps. *)

val now : unit -> float
(** Seconds from the current source (default: monotonically clamped
    [Unix.gettimeofday]). *)

val with_source : (unit -> float) -> (unit -> 'a) -> 'a
(** [with_source f thunk] runs [thunk] with {!now} reading from [f],
    restoring the previous source afterwards (also on exceptions).
    Intended for tests that need deterministic timestamps. *)
