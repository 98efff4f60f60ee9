(** The single-level store (§3, §4).

    All kernel objects live here; on bootup the entire system state is
    restored from the most recent on-disk snapshot. The store keeps a
    dirty set and a clean cache in memory:

    - {!put}/{!delete} are memory-speed and become durable at the next
      {!checkpoint} (the paper's whole-system snapshot / "group sync");
    - {!sync_oid} makes one object durable immediately by committing a
      record to the write-ahead log (the paper's fsync path); after
      [apply_threshold] logged records the store applies the log by
      checkpointing, matching the paper's "about once every 1,000
      synchronous operations";
    - {!recover} rebuilds the store from the snapshot plus the
      committed log suffix after a crash.

    Object payloads are opaque byte strings; the kernel serializes its
    objects into them. Home locations come from the two-B+-tree extent
    allocator; the object map is a third B+-tree, as in §4. A home
    image's checksum is a root over the fnv64 sums of its 4 KB payload
    chunks, and the store keeps the clean copy of each home image in
    memory with those sums, so {!sync_range} re-checksums only what it
    touches. *)

type t

val format :
  disk:Histar_disk.Disk.t ->
  ?wal_sectors:int ->
  ?apply_threshold:int ->
  unit ->
  t
(** Initialize an empty store on a disk. Default [wal_sectors] is
    65536 (32 MB); default [apply_threshold] is 1000 records. *)

val recover : disk:Histar_disk.Disk.t -> t
(** Rebuild from the last snapshot and replay the committed log.
    Counted in [store.recoveries]; the committed-prefix replay length
    and resulting live-object count land in [store.replayed_records]
    and [store.recovered_objects] — the numbers a shard-death drill
    reads to prove a node really came back from its own store. *)

val fork : t -> t
(** Branch the whole store — O(1) in the number of objects. The object
    map and allocator trees are persistent and shared structurally; the
    disk fork shares the persistent media map. Mutations on either side
    (puts, checkpoints, scrubs, quarantines, WAL epoch bumps) stay
    local to that branch. {!fsck} is valid on any branch. *)

val disk : t -> Histar_disk.Disk.t
(** The disk this store handle writes to (a fork's is its own). *)

val put : t -> oid:int64 -> ?header_len:int -> string -> unit
(** Stage new contents, durable at the next {!checkpoint} or sync.
    [header_len] is the length of the payload's fixed prefix, the part
    {!sync_range} rewrites whole; without it, a range flush of this
    object after the checkpoint falls back to the log. *)

val get : t -> oid:int64 -> string option
val mem : t -> oid:int64 -> bool

val delete : t -> oid:int64 -> unit
(** Removing an absent object is a no-op. *)

val sync_oid : t -> oid:int64 -> unit
(** Force this object (its current contents, or its deletion) to the
    log and flush. *)

val sync_oids : t -> oids:int64 list -> unit
(** Like {!sync_oid} for several objects with a single commit (one
    barrier) — the group-commit advantage of the log. *)

val sync_range :
  t ->
  oid:int64 ->
  header:string ->
  body:Bytes.t ->
  body_len:int ->
  off:int ->
  len:int ->
  bool
(** In-place page flush (§7.1). The object's payload is [header]
    followed by the first [body_len] bytes of [body]; bytes of [body]
    past [body_len] (a segment's spare capacity) are never read, and
    the range is clamped to [body_len]. Patch [header] and body bytes [off, off+len)
    into the cached home image, re-checksum only the chunks they touch,
    and force the header sector(s) and the sectors covering the range to
    the object's home location with one barrier — no log record, no
    checkpoint, O(range) work. Exactly that range and its sector slack
    become durable: other pending changes of the object (a {!put} since
    the checkpoint) stay pending. Falls back to {!put} of the whole
    payload plus {!sync_oid} when there is no cached home image (none
    since the last {!checkpoint}, or after {!drop_clean_cache}), when
    the payload or header length changed, or when the object has a log
    record since the last checkpoint. Returns [true] when the in-place
    path was taken, [false] when it fell back to the log. *)

val checkpoint : t -> unit
(** Whole-system snapshot: write every dirty object to its home
    location, persist the object map and allocator, update the
    superblock, truncate the log. *)

val drop_clean_cache : t -> unit
(** Evict clean cached objects (used by the uncached-read benchmarks).
    Dirty objects are retained. *)

val iter_oids : t -> (int64 -> unit) -> unit
(** Every live object id (dirty or persistent), unordered. *)

val object_count : t -> int
val dirty_count : t -> int

type stats = {
  mutable checkpoints : int;
  mutable wal_commits : int;
  mutable wal_records : int;
  mutable log_applies : int;  (** checkpoints forced by the log *)
  mutable cache_hits : int;
  mutable cache_misses : int;
}

val stats : t -> stats
val free_sectors : t -> int

(** {1 Media-fault repair}

    All store reads retry transient disk errors with backoff
    ({!Histar_disk.Disk.read_retrying}). Latent sector errors and
    silent write corruption are detected by the per-object checksums
    and repaired by {!scrub}. *)

type scrub_report = {
  passes : int;  (** verify passes run (1 when already clean) *)
  scanned : int;  (** object-image verifications, summed over passes *)
  repaired : int;  (** objects re-homed from an in-memory copy *)
  quarantined_sectors : int;  (** sectors withdrawn from service *)
  lost : int64 list;  (** oids unreadable with no surviving copy *)
  clean : bool;  (** final pass found no faults *)
}

val scrub : ?max_passes:int -> t -> scrub_report
(** Verify and repair every durable structure: the store and WAL
    superblocks (healed by rewrite — rewriting clears a latent mark,
    like a drive remap), the checkpoint metadata extent (superseded by
    a forced checkpoint when bad), and each clean mapped object's home
    image. An image that stays unreadable after retries, or fails its
    checksum, loses its extent to the quarantine list — never returned
    to the allocator, persisted in checkpoint metadata — and its
    payload is re-homed from the clean cache when present. Repair
    writes can themselves strike new latent sectors, so the loop
    re-verifies until one pass is fault-free (bounded by [max_passes],
    default 10; [clean = false] when the bound is hit). Deterministic
    for a fixed fault seed. *)

val quarantined_extents : t -> (int * int) list
(** Quarantined [(start, sectors)] extents, in increasing start order. *)

val home_extent : t -> oid:int64 -> (int * int) option
(** The [(start, sectors)] home extent of a checkpointed object. *)

val check_invariants : t -> unit
(** Structural checks: allocator and object-map B+-trees are valid and
    every mapped object image parses with a clean checksum. *)

val fsck : t -> unit
(** Everything in {!check_invariants}, plus whole-disk accounting: the
    object map, checkpoint metadata extent, free extents and
    quarantined extents must exactly tile the data region (no leaked
    sectors, no double allocation), the on-disk checkpoint image must
    checksum clean, and the WAL must satisfy
    {!Histar_wal.Wal.check_invariants}. Intended for the crash-sweep
    harness after {!recover}, and after {!scrub} under media faults. *)
