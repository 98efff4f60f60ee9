(* Ablations of the design choices the paper calls out:

   1. §7.1 credits HiStar's acceptable fsync performance to queuing
      synchronous updates in the write-ahead log and applying them in
      batches ("about once every 1,000 synchronous operations"). We
      sweep the apply threshold: at 1 every fsync degenerates into a
      whole-system checkpoint; at the paper's 1,000 the log absorbs
      nearly everything.

   2. §6.2 notes that privilege-separating authentication keeps labels
      small, "improving the performance of label operations". We sweep
      label width and measure the wall-clock cost of the ⊑ check that
      every syscall performs.

   3. The disk write barrier is what makes per-file sync expensive; we
      sweep its cost (half-rotation at 7,200/15,000 RPM and an
      NVMe-like near-zero) to show the sync/async gap is a rotational
      artifact, not a HiStar artifact. *)

open Harness
module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Metrics = Histar_metrics.Metrics

let files = 300

(* The Figure 12 per-file-sync create, with the 4-digit names the
   recorded ablation figures were taken with. *)
let per_file_sync_time ~apply_threshold ?params () =
  s_of_ns
    (F12_lfs.histar_create ~digits:4 ~mode:`Sync ~files
       (mk_machine ?params ~apply_threshold ()))

let label_check_ns ~cats =
  let mk seed =
    Label.of_list
      (List.init cats (fun i ->
           (Category.of_int ((i * 7919) + seed), Level.of_int ((i + seed) mod 4))))
      Level.L1
  in
  let a = mk 1 and b = mk 2 in
  let iters = 200_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Label.leq a b)
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9

let run () =
  header "Ablation 1: write-ahead-log apply threshold (§7.1 batching)";
  Printf.printf "%-44s %14s\n"
    (Printf.sprintf "per-file sync of %d files, threshold =" files)
    "simulated time";
  List.iter
    (fun threshold ->
      let s = per_file_sync_time ~apply_threshold:threshold () in
      Printf.printf "%-44d %12.2f s\n" threshold s)
    [ 1; 10; 100; 1000 ];
  print_endline
    "(threshold 1 = checkpoint per fsync; 1000 = the paper's setting)";
  header "Ablation 2: label width vs ⊑ cost (§6.2 'keep labels small')";
  Printf.printf "%-44s %14s\n" "categories in each label" "wall-clock leq";
  List.iter
    (fun cats ->
      Printf.printf "%-44d %11.0f ns\n" cats (label_check_ns ~cats))
    [ 1; 4; 16; 64; 256 ];
  header "Ablation 3: label-comparison cache (§4 'caches the result')";
  (let clock = Clock.create () in
   let disk = Disk.create ~clock () in
   let store = Store.format ~disk ~wal_sectors:65_536 () in
   let kernel = Kernel.create ~clock ~store ~syscall_cost_ns:120 () in
   let m = { kernel; clock; disk; store } in
   let d =
     Metrics.with_enabled true (fun () ->
         let before = Metrics.snapshot_local () in
         boot m (fun fs _proc ->
             ignore (Fs.mkdir fs "/churn");
             for i = 0 to 199 do
               let p = Printf.sprintf "/churn/f%d" (i mod 20) in
               Fs.write_file fs p "x";
               ignore (Fs.read_file fs p)
             done);
         Metrics.diff ~before ~after:(Metrics.snapshot_local ()))
   in
   let hits = Metrics.value_in d "label.cache_hits" in
   let misses = Metrics.value_in d "label.cache_misses" in
   Printf.printf "fs churn workload: %d hits, %d misses (%.1f%% hit rate)\n"
     hits misses
     (100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses))));
  header "Ablation 4: barrier cost (the sync gap is rotational)";
  let sweep name rotation_us =
    let params = { Disk.default_params with Disk.rotation_us } in
    let s = per_file_sync_time ~apply_threshold:1000 ~params () in
    Printf.printf "%-44s %12.2f s\n" name s
  in
  sweep "7,200 RPM (the paper's drive)" 8_333.0;
  sweep "15,000 RPM" 4_000.0;
  sweep "NVMe-like (no rotation)" 10.0
