(** Memoized label comparisons.

    §4: "The kernel performs several key optimizations. It caches the
    result of comparisons between immutable labels." Object labels are
    immutable after creation and thread labels change rarely, so the
    same (thread label, object label) pairs recur on every fault-path
    access; this bounded cache short-circuits them.

    Keys are the label values themselves (hash-consed, so hashing and
    equality are effectively by intern identity); the cache is cleared
    wholesale when it reaches its bound, which keeps the worst case
    linear and the common case O(1).

    Counter semantics: with elision enabled (the default), a cache hit
    counts as [label.elided] — the §2 algebra did not run — and only
    misses and un-summarized gate checks count as [label.checks].
    With elision disabled ([~elide:false]), hits count as
    [label.checks] as before, so [label.checks = label.cache_hits +
    label.cache_misses] on cache-only workloads. [label.denied] is identical either way.
    Hits and misses are counted only in [label.cache_hits] /
    [label.cache_misses]; read them through a
    {!Histar_metrics.Metrics} window.

    This cache and the kernel's per-gate flow summaries are the only
    label-decision caches: {!Histar_label.Label}'s lattice operations
    run the pointwise algebra on every call. *)

type t

val create : ?bound:int -> ?elide:bool -> unit -> t
(** Default bound: 8192 entries per relation. [elide] defaults to
    [true]; [false] is the reference switch for the elided-vs-naive
    differential. *)

val elide_enabled : t -> bool

val observe : t -> thread:Histar_label.Label.t -> obj:Histar_label.Label.t -> bool
(** Memoized {!Histar_label.Label.can_observe}. *)

val modify : t -> thread:Histar_label.Label.t -> obj:Histar_label.Label.t -> bool
(** Memoized {!Histar_label.Label.can_modify}. *)

val copy : t -> t
(** An independent cache with identical contents, so a forked kernel's
    future hit/miss behaviour matches the trunk's at the branch point
    exactly. *)

val count_uncached_check : allowed:bool -> unit
(** Report a label comparison performed outside the cache (gate
    invocation checks use {!Histar_label.Label.leq} directly) into the
    global [label.checks] / [label.denied] metrics, so those counters
    cover every kernel label decision. *)

val count_elided : allowed:bool -> unit
(** Report a gate-invocation decision served from a per-gate flow
    summary: counts into [label.elided] (and [label.denied] when the
    cached decision was a denial) without touching [label.checks]. *)

val count_summary_invalidation : unit -> unit
(** Report a flow-summary invalidation (thread label/clearance epoch
    bump with live summaries, or a summarized gate being destroyed)
    into [label.summary_invalidations]. *)
