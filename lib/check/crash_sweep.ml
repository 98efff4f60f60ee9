module Disk = Histar_disk.Disk
module Metrics = Histar_metrics.Metrics
module Par = Histar_par.Par

(* Cells actually checked (one per crash index, either mode), so the
   bench trajectory can watch sweep throughput. *)
let m_cells = Metrics.counter "crash_sweep.cells"

type mode = [ `Fork | `Replay ]

type instance = {
  disk : Disk.t;
  run : unit -> unit;
  check : crashed:bool -> Disk.t -> unit;
  snapshot : (unit -> unit -> unit) option;
}

type t = { name : string; mk : int64 -> instance }

type report = {
  workload : string;
  total_writes : int;
  points : int;
  mode : mode;
  wall_seconds : float;
}

let mode_string = function `Fork -> "fork" | `Replay -> "replay"

let cells_per_sec r =
  if r.wall_seconds <= 0.0 then infinity
  else float_of_int r.points /. r.wall_seconds

let pp_report fmt r =
  Format.fprintf fmt "%s: %d crash points over %d media writes (%s-based)"
    r.workload r.points r.total_writes (mode_string r.mode)

let replay_filter name =
  match Stdlib.Sys.getenv_opt "HISTAR_CHECK_WORKLOAD" with
  | Some w when w <> "" && w <> name -> `Skip
  | _ -> (
      match Stdlib.Sys.getenv_opt "HISTAR_CHECK_CRASH_INDEX" with
      | Some s when s <> "" -> (
          match int_of_string_opt s with
          | Some i -> `Only i
          | None ->
              invalid_arg ("HISTAR_CHECK_CRASH_INDEX: cannot parse " ^ s))
      | _ -> `All)

(* Evenly-strided sample of [n] indices from [0, total), endpoints
   included. *)
let strided ~total ~n =
  if total <= n then List.init total Fun.id
  else
    List.init n (fun i -> i * (total - 1) / (n - 1))
    |> List.sort_uniq Int.compare

(* Both cell paths raise the same replayable falsification, so a
   fork-based failure reproduces with the (replay-based) single-index
   env knobs. *)
let falsify w ~seed ~total i e =
  raise
    (Check.Falsified
       (Printf.sprintf
          "crash sweep '%s': invariant violation at crash index %d of %d \
           (seed 0x%LX)\n\
           cause: %s\n\
           replay: HISTAR_CHECK_SEED=0x%LX HISTAR_CHECK_WORKLOAD=%s \
           HISTAR_CHECK_CRASH_INDEX=%d dune runtest"
          w.name i total seed
          (match e with Failure m -> m | e -> Printexc.to_string e)
          seed w.name i))

(* Replay-based cell: fresh instance, re-run the whole workload prefix
   with a scheduled crash, reopen, check. *)
let crash_one w ~seed ~total i =
  let inst = w.mk seed in
  Disk.set_crash_after_writes inst.disk i;
  (match inst.run () with () -> () | exception Disk.Crashed -> ());
  let crashed = Disk.crashed inst.disk in
  let disk =
    if crashed then Disk.reopen_after_crash inst.disk else inst.disk
  in
  Metrics.Counter.incr m_cells;
  try inst.check ~crashed disk with e -> falsify w ~seed ~total i e

(* Fork-based cell: the state at crash index [i] was captured during
   the single clean run (an O(1) media snapshot plus the workload's own
   model capture); branch a disk off it and check. *)
let fork_one w inst ~seed ~total snaps i =
  if i < 0 || i >= Array.length snaps then
    invalid_arg
      (Printf.sprintf "crash sweep '%s': crash index %d out of [0, %d)" w.name
         i (Array.length snaps));
  let media, restore_model = snaps.(i) in
  restore_model ();
  let disk = Disk.restore media ~clock:(Histar_util.Sim_clock.create ()) in
  Metrics.Counter.incr m_cells;
  try inst.check ~crashed:true disk with e -> falsify w ~seed ~total i e

(* A clean run that captures, before every media sector write, the
   media snapshot and a model-state restore thunk. Returns the
   instance, the captures (index [i] = state a crash at write [i]
   leaves), and the total write count. The clean-run check still runs,
   exactly as in replay mode. *)
let clean_run_with_captures w ~seed =
  let inst = w.mk seed in
  let capture =
    match inst.snapshot with
    | Some c -> c
    | None ->
        invalid_arg
          (Printf.sprintf
             "crash sweep '%s': workload has no model snapshot; use replay \
              mode"
             w.name)
  in
  let snaps = ref [] in
  Disk.set_pre_write_hook inst.disk
    (Some (fun () -> snaps := (Disk.snapshot inst.disk, capture ()) :: !snaps));
  inst.run ();
  Disk.set_pre_write_hook inst.disk None;
  let total = Disk.media_writes inst.disk in
  inst.check ~crashed:false inst.disk;
  let snaps = Array.of_list (List.rev !snaps) in
  assert (Array.length snaps = total);
  (inst, snaps, total)

let sweep ?domains ?seed:seed_arg ?(max_points = 64) ?full ?mode w =
  let seed = match seed_arg with Some s -> s | None -> Check.seed () in
  let full = match full with Some f -> f | None -> Check.full_mode () in
  let t0 = Stdlib.Sys.time () in
  let finish ~total ~points ~mode =
    {
      workload = w.name;
      total_writes = total;
      points;
      mode;
      wall_seconds = Stdlib.Sys.time () -. t0;
    }
  in
  let indices ~total =
    match replay_filter w.name with
    | `Skip -> []
    | `Only i -> [ i ]
    | `All ->
        if full then List.init total Fun.id else strided ~total ~n:max_points
  in
  (* Default to fork-based when the workload can capture its model
     state; a workload without a snapshot falls back to replay. *)
  let mode =
    match mode with
    | Some m -> m
    | None -> if Option.is_some (w.mk seed).snapshot then `Fork else `Replay
  in
  match mode with
  | `Replay ->
      let inst = w.mk seed in
      inst.run ();
      let total = Disk.media_writes inst.disk in
      inst.check ~crashed:false inst.disk;
      (* Every replay cell builds its own instance, so cells fan out
         one-per-task; [Par.run] re-raises the lowest-index
         falsification, matching the sequential first failure. *)
      let indices = Array.of_list (indices ~total) in
      ignore
        (Par.run ?domains (Array.length indices) (fun i ->
             crash_one w ~seed ~total indices.(i))
          : unit array);
      finish ~total ~points:(Array.length indices) ~mode
  | `Fork ->
      let inst, snaps, total = clean_run_with_captures w ~seed in
      (* Fork cells share the one clean instance ([restore_model]
         mutates it), so they run in index order on this domain; a
         chunked pool fan-out measured no faster at two domains. *)
      let indices = indices ~total in
      List.iter (fork_one w inst ~seed ~total snaps) indices;
      finish ~total ~points:(List.length indices) ~mode

(* One cell's *recovery* work, metered: produce the crashed media at
   [index] by the given mode, then run the workload check with the
   metrics registry enabled only around it. Both modes must yield
   byte-identical metric diffs — the fork-vs-replay equivalence the
   tests pin down. *)
let recovery_metrics w ~seed ~index ~mode =
  let check inst ~crashed disk =
    (* A domain-local window: the recovery work all happens on the
       calling domain, so [snapshot_local] meters exactly it even when
       other pool tasks are incrementing their own shards. *)
    let before = Metrics.snapshot_local () in
    Metrics.with_enabled true (fun () -> inst.check ~crashed disk);
    Metrics.diff ~before ~after:(Metrics.snapshot_local ())
  in
  match mode with
  | `Replay ->
      let inst = w.mk seed in
      Disk.set_crash_after_writes inst.disk index;
      (match inst.run () with () -> () | exception Disk.Crashed -> ());
      if not (Disk.crashed inst.disk) then
        invalid_arg
          (Printf.sprintf "crash sweep '%s': index %d never reached" w.name
             index);
      check inst ~crashed:true (Disk.reopen_after_crash inst.disk)
  | `Fork ->
      let inst, snaps, total = clean_run_with_captures w ~seed in
      if index < 0 || index >= total then
        invalid_arg
          (Printf.sprintf "crash sweep '%s': index %d out of [0, %d)" w.name
             index total);
      let media, restore_model = snaps.(index) in
      restore_model ();
      let disk = Disk.restore media ~clock:(Histar_util.Sim_clock.create ()) in
      check inst ~crashed:true disk
