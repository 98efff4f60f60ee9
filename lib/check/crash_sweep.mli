(** Deterministic crash-point sweep driver (§4 durability claim).

    A workload is a factory producing, from a seed, a fresh simulated
    disk plus a deterministic [run] against it and a recovery [check].
    The driver executes the workload once cleanly and records the total
    number of media sector writes [W] via {!Histar_disk.Disk.media_writes};
    every [i] in [\[0, W)] is then a distinct crash point: the media as
    of writes [0..i-1] with the volatile cache lost must recover and
    validate every invariant.

    Two ways to produce cell [i]'s crashed media:

    - {b replay} (the historical mode): re-execute the whole workload
      with [set_crash_after_writes i] — O(W) work per cell, O(W²) for a
      full sweep;
    - {b fork} (default when the workload provides a model [snapshot]):
      during the single clean run, a pre-write hook captures an O(1)
      persistent-media snapshot plus the workload's model state before
      every write; each cell then branches a disk off its capture and
      checks — O(W) for the whole sweep.

    Both modes check the identical media state and raise the identical
    falsification, and {!recovery_metrics} lets tests assert the
    recovery work is metric-for-metric the same.

    By default a strided sample of at most [max_points] indices
    (always including [0] and [W-1]) is swept so the test stays tier-1
    fast; with [HISTAR_CHECK_FULL=1] every crash point is visited.

    Any violation raises {!Check.Falsified} with the seed and crash
    index, replayable in one command:

    {v
    HISTAR_CHECK_SEED=0xSEED HISTAR_CHECK_WORKLOAD=store \
      HISTAR_CHECK_CRASH_INDEX=123 dune runtest
    v} *)

type mode = [ `Fork | `Replay ]

type instance = {
  disk : Histar_disk.Disk.t;  (** fresh, unformatted *)
  run : unit -> unit;
      (** Execute the workload against [disk]; must be deterministic in
          the seed, and must let {!Histar_disk.Disk.Crashed} escape. *)
  check : crashed:bool -> Histar_disk.Disk.t -> unit;
      (** Validate recovery; the disk has been reopened if [crashed].
          Raises on any invariant violation. *)
  snapshot : (unit -> unit -> unit) option;
      (** Capture the workload's own model state (history arrays,
          expected-durability floors, …), returning a thunk that
          restores it. Required for fork-based sweeping: the model
          capture taken before media write [i] must describe exactly
          the state the replay-based run has when it crashes at [i]. *)
}

type t = { name : string; mk : int64 -> instance }

type report = {
  workload : string;
  total_writes : int;  (** media writes in the clean run *)
  points : int;  (** crash indices actually exercised *)
  mode : mode;  (** how cells were produced *)
  wall_seconds : float;  (** host CPU time for the whole sweep *)
}

val sweep :
  ?domains:int ->
  ?seed:int64 ->
  ?max_points:int ->
  ?full:bool ->
  ?mode:mode ->
  t ->
  report
(** Defaults: seed from {!Check.seed}, [max_points] 64, [full] from
    {!Check.full_mode}, [mode] fork when the workload has a [snapshot]
    (replay otherwise). Honors [HISTAR_CHECK_WORKLOAD] /
    [HISTAR_CHECK_CRASH_INDEX] for single-point replay.

    Replay cells fan out one per task on the lib/par pool
    ([?domains] defaults to [Par.domains ()]); fork cells share one
    clean-run instance and run sequentially in index order on the
    calling domain. Any falsification raised, and the merged metric
    totals, are byte-identical at every domain count — the first
    (lowest-index) failing cell wins, exactly as in a sequential
    sweep. *)

val recovery_metrics :
  t ->
  seed:int64 ->
  index:int ->
  mode:mode ->
  Histar_metrics.Metrics.snapshot
(** Produce the crashed media at [index] by the given mode, then run
    the workload's [check] with the metrics registry enabled only
    around it, returning the metric delta of the recovery work. The
    fork/replay equivalence tests assert the two deltas are
    byte-identical. *)

val cells_per_sec : report -> float
(** Sweep throughput; the fork-based speedup assertion divides these. *)

val mode_string : mode -> string
val pp_report : Format.formatter -> report -> unit
