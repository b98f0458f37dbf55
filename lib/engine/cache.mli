(** Content-addressed proof-result cache.

    An obligation's outcome is stored under a digest of (engine
    version, phase, id, fingerprint).  The fingerprint captures every
    input the outcome depends on — for code-proof obligations the
    MIRlight of the function and of every layer at or below it, the
    layout geometry, and the seed — so a warm run skips unchanged
    obligations, and editing one Rustlite function invalidates exactly
    that function's obligation and its dependents (whose fingerprints
    include the edited MIR), nothing below it.

    Outcomes are batched: {!stash} buffers them in memory and {!flush}
    appends them all as one per-run pack file ([*.pack]), whose entries
    are loaded into an in-memory index at {!create} — a cold run costs
    one file write instead of one per obligation.

    A pack is a magic header carrying the OCaml version, the MD5 of the
    payload, and the [Marshal]ed payload.  The header and digest are
    checked before anything is unmarshalled, so a pack from another
    toolchain, a torn write or a corrupt byte degrades to a cache miss,
    and the unreadable pack is unlinked — its keys already encode
    version and fingerprint, so it can never become valid again.  A
    corrupt cache can cost time, never a verdict.  Writes are
    write-to-temp + atomic rename, safe under concurrent workers and
    concurrent runs.  {!stash}/{!find} are mutex-guarded and safe from
    worker domains. *)

type t

val version : string
(** Engine/cache format version; part of every key.  Bump when check
    semantics change — the OCaml harness code is not fingerprinted. *)

val create : dir:string -> t
(** Creates [dir] (and parents) when missing and loads every readable
    pack file into the index.  Raises [Invalid_argument] with a
    readable message when [dir] is empty or cannot be created. *)

val key : Obligation.t -> string
(** Hex digest naming the obligation's cache entry — computed over
    (engine version, phase, id, fingerprint). *)

val refresh : t -> int
(** Merge packs that appeared in the directory since {!create} (or the
    last refresh) into the index — the fleet's warm-sharing path: a
    proof flushed by one worker process becomes a hit for all.  Safe
    against packs appearing or being evicted mid-scan (renames are
    atomic; a vanished pack is a miss).  Returns the number of new
    packs merged. *)

val find : t -> Obligation.t -> Obligation.outcome option
(** The pending buffer, then the pack index; no file IO. *)

val stash : t -> Obligation.t -> Obligation.outcome -> unit
(** Buffer an outcome for the next {!flush}.  Visible to {!find}
    immediately; durable only after {!flush}. *)

val flush : t -> unit
(** Write all stashed outcomes as one new pack file and merge them into
    the index.  A no-op when nothing is pending.  [Pool.run] calls this
    once per run.  The pack write holds an advisory [lockf] on
    [<dir>/.lock], serializing flushes across processes sharing the
    directory; readers never take the lock (renames are atomic). *)

val entry_count : t -> int
(** Number of distinct keys across the index and the pending buffer
    (diagnostics). *)

val write_failures : t -> (string * string) list
(** Every absorbed write failure so far, oldest first, as
    [(op, message)] with [op] = ["flush"].  A write failure only
    degrades the cache (the next run recomputes), so {!flush} does not
    raise — but it records here, and the driver surfaces the records as
    trace events and a summary counter instead of losing them.
    [Out_of_memory] and [Stack_overflow] are never absorbed. *)

val write_failure_count : t -> int

val set_chaos : t -> Engine_chaos.t -> unit
(** Arm the chaos harness's cache hook: the first pack written after
    {!flush}'s rename may be torn (at the harness's deterministic
    discretion).  Corruption lands *after* the atomic rename, modelling
    a torn write that fsync would have caught. *)
