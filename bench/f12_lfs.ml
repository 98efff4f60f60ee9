(* Figure 12, lower half: the LFS small-file and large-file benchmarks
   on HiStar and the comparison kernels, over identical simulated
   disks. Counts are scaled down from the paper's 10,000 files /
   100 MB; every reported figure is also extrapolated back to the
   paper's size so shapes can be compared directly. *)

open Harness
module Unixsim = Histar_baseline.Unixsim

let files = ref 800
let paper_files = 10_000
let large_mb = ref 24
let paper_large_mb = 100
let rand_writes = ref 400
let paper_rand_writes = 12_800

let scale_small v = v *. (float_of_int paper_files /. float_of_int !files)
let scale_large v = v *. (float_of_int paper_large_mb /. float_of_int !large_mb)

let scale_rand v =
  v *. (float_of_int paper_rand_writes /. float_of_int !rand_writes)

type small_results = {
  create_async : float;
  create_sync : float;
  create_group : float;
  read_cached : float;
  read_uncached : float option;
  unlink_async : float;
  unlink_sync : float;
  unlink_group : float option;
}

let content = String.make 1024 'd'

(* ---------- HiStar ---------- *)

(* One machine per phase-variant so WAL/state does not leak between
   measurements. [histar_create] runs on the machine it is given, so a
   caller can vary the disk or the log under it; it returns the virtual
   ns of creating [files] 1 KB files named with [digits]-digit numbers
   (name length shows in the directory's sync cost). *)
let histar_create ?(digits = 5) ~mode ~files m =
  boot m (fun fs _proc ->
      ignore (Fs.mkdir fs "/lfs");
      let (), ns =
        timed m.clock (fun () ->
            for i = 0 to files - 1 do
              let p = Printf.sprintf "/lfs/f%0*d" digits i in
              Fs.write_file fs p content;
              match mode with
              | `Async -> ()
              | `Sync -> Fs.fsync fs p
              | `Group -> ()
            done;
            match mode with
            | `Group -> Sys.sync_all ()
            | `Async | `Sync -> ())
      in
      ns)

let histar_read ~files ~cached =
  let m = mk_machine () in
  boot m (fun fs _proc ->
      ignore (Fs.mkdir fs "/lfs");
      let oids = ref [] in
      for i = 0 to files - 1 do
        let p = Printf.sprintf "/lfs/f%05d" i in
        Fs.write_file fs p content;
        match Fs.lookup fs p with
        | Some n -> oids := n.Fs.oid :: !oids
        | None -> ()
      done;
      if cached then
        let (), ns =
          timed m.clock (fun () ->
              for i = 0 to files - 1 do
                ignore (Fs.read_file fs (Printf.sprintf "/lfs/f%05d" i))
              done)
        in
        s_of_ns ns
      else begin
        (* uncached: force everything to disk, drop the store's cache,
           then read each object image back from its home location (the
           kernel's in-memory copy plays the role of the page cache, so
           we measure the store's disk path directly) *)
        Sys.sync_all ();
        Store.drop_clean_cache m.store;
        let (), ns =
          timed m.clock (fun () ->
              List.iter
                (fun oid -> ignore (Store.get m.store ~oid))
                (List.rev !oids))
        in
        s_of_ns ns
      end)

let histar_unlink ~files ~mode =
  let m = mk_machine () in
  boot m (fun fs _proc ->
      ignore (Fs.mkdir fs "/lfs");
      for i = 0 to files - 1 do
        Fs.write_file fs (Printf.sprintf "/lfs/f%05d" i) content
      done;
      Sys.sync_all ();
      let (), ns =
        timed m.clock (fun () ->
            for i = 0 to files - 1 do
              Fs.unlink fs (Printf.sprintf "/lfs/f%05d" i);
              match mode with
              | `Async -> ()
              | `Sync ->
                  (* §7.1: directory fsync checkpoints the whole system *)
                  Fs.fsync_dir fs "/lfs"
              | `Group -> ()
            done;
            match mode with
            | `Group -> Sys.sync_all ()
            | `Async | `Sync -> ())
      in
      s_of_ns ns)

let histar_small ~files =
  let create mode = s_of_ns (histar_create ~mode ~files (mk_machine ())) in
  {
    create_async = create `Async;
    create_sync = create `Sync;
    create_group = create `Group;
    read_cached = histar_read ~files ~cached:true;
    read_uncached = Some (histar_read ~files ~cached:false);
    unlink_async = histar_unlink ~files ~mode:`Async;
    unlink_sync = histar_unlink ~files ~mode:`Sync;
    unlink_group = Some (histar_unlink ~files ~mode:`Group);
  }

(* ---------- baselines ---------- *)

let baseline_small flavor =
  let fresh () =
    let clock = Clock.create () in
    let disk = Disk.create ~clock () in
    (clock, Unixsim.create flavor ~disk ~clock ())
  in
  let create ~sync =
    let clock, u = fresh () in
    let (), ns =
      timed clock (fun () ->
          for i = 0 to !files - 1 do
            let p = Printf.sprintf "/lfs/f%05d" i in
            Unixsim.creat u ~uid:1 ~mode:0o644 p;
            Unixsim.write u ~uid:1 p content;
            if sync then Unixsim.fsync u p
          done)
    in
    s_of_ns ns
  in
  let read ~cached =
    let clock, u = fresh () in
    for i = 0 to !files - 1 do
      let p = Printf.sprintf "/lfs/f%05d" i in
      Unixsim.creat u ~uid:1 ~mode:0o644 p;
      Unixsim.write u ~uid:1 p content
    done;
    Unixsim.sync_all u;
    if not cached then Unixsim.drop_caches u;
    let (), ns =
      timed clock (fun () ->
          for i = 0 to !files - 1 do
            ignore (Unixsim.read u ~uid:1 (Printf.sprintf "/lfs/f%05d" i))
          done)
    in
    s_of_ns ns
  in
  let unlink ~sync =
    let clock, u = fresh () in
    for i = 0 to !files - 1 do
      let p = Printf.sprintf "/lfs/f%05d" i in
      Unixsim.creat u ~uid:1 ~mode:0o644 p;
      Unixsim.write u ~uid:1 p content
    done;
    Unixsim.sync_all u;
    let (), ns =
      timed clock (fun () ->
          for i = 0 to !files - 1 do
            Unixsim.unlink u ~uid:1 (Printf.sprintf "/lfs/f%05d" i);
            if sync then Unixsim.fsync_dir u "/lfs"
          done)
    in
    s_of_ns ns
  in
  let on_disk = flavor = Unixsim.Linux in
  {
    create_async = create ~sync:false;
    create_sync = (if on_disk then create ~sync:true else nan);
    create_group = nan;
    read_cached = read ~cached:true;
    read_uncached = (if on_disk then Some (read ~cached:false) else None);
    unlink_async = unlink ~sync:false;
    unlink_sync = (if on_disk then unlink ~sync:true else nan);
    unlink_group = None;
  }

(* ---------- large file ---------- *)

let chunk = 8192

(* Phases 1 and 2 of the large-file benchmark, inside a booted machine:
   an [mb] MB sequential write closed and fsynced, then [writes] random
   synchronous 8 KB writes flushed in place. Returns the virtual ns of
   each phase. *)
let large_writes m fs proc ~mb ~writes =
  let bytes = mb * 1024 * 1024 in
  ignore (Fs.mkdir fs "/big");
  ignore (Fs.create fs "/big/file");
  Fs.reserve fs "/big/file" (bytes + 65536);
  let data = String.make chunk 'L' in
  (* phase 1: sequential write + one fsync *)
  let fd = Process.open_file proc "/big/file" in
  let (), seq_ns =
    timed m.clock (fun () ->
        for _ = 1 to bytes / chunk do
          ignore (Process.write proc fd data)
        done;
        Process.close proc fd;
        Fs.fsync fs "/big/file")
  in
  Sys.sync_all ();
  (* phase 2: random synchronous writes, flushed in place *)
  let rng = Histar_util.Rng.create 7L in
  let (), rand_ns =
    timed m.clock (fun () ->
        for _ = 1 to writes do
          let off = Histar_util.Rng.int rng (bytes - chunk) in
          let fd = Process.open_file proc "/big/file" in
          Process.seek proc fd off;
          ignore (Process.write proc fd data);
          Process.close proc fd;
          Fs.fsync_range fs "/big/file" ~off ~len:chunk
        done)
  in
  (seq_ns, rand_ns)

let histar_large ~mb ~writes =
  let m = mk_machine () in
  boot m (fun fs proc ->
      let seq_ns, rand_ns = large_writes m fs proc ~mb ~writes in
      (* phase 3: uncached sequential read through the store *)
      Sys.sync_all ();
      Store.drop_clean_cache m.store;
      let oid =
        match Fs.lookup fs "/big/file" with
        | Some n -> n.Fs.oid
        | None -> failwith "lost the big file"
      in
      let (), read_ns =
        timed m.clock (fun () -> ignore (Store.get m.store ~oid))
      in
      (s_of_ns seq_ns, s_of_ns rand_ns, s_of_ns read_ns))

let baseline_large flavor =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let u = Unixsim.create flavor ~disk ~clock () in
  let bytes = !large_mb * 1024 * 1024 in
  Unixsim.creat u ~uid:1 ~mode:0o644 "/big";
  let (), seq_ns =
    timed clock (fun () ->
        (* data accumulates in cache; fsync writes it out once *)
        Unixsim.write u ~uid:1 "/big" (String.make bytes 'L');
        Unixsim.fsync u "/big")
  in
  let (), rand_ns =
    timed clock (fun () ->
        for _ = 1 to !rand_writes do
          Unixsim.sync_write_pages u "/big" ~pages:2
        done)
  in
  Unixsim.drop_caches u;
  let (), read_ns =
    timed clock (fun () -> ignore (Unixsim.read u ~uid:1 "/big"))
  in
  (s_of_ns seq_ns, s_of_ns rand_ns, s_of_ns read_ns)

(* ---------- printing ---------- *)

let p_small name get hi li bi ~paper_note =
  let cell r =
    match get r with
    | None -> na
    | Some v when Float.is_nan v -> na
    | Some v -> Printf.sprintf "%.2f s" (scale_small v)
  in
  row4 name (cell hi) (cell li) (cell bi);
  paper paper_note

let run () =
  header
    (Printf.sprintf
       "Figure 12 (lower): LFS small-file benchmark (%d files, scaled to %d)"
       !files paper_files);
  let hi = histar_small ~files:!files in
  let li = baseline_small Unixsim.Linux in
  let bi = baseline_small Unixsim.Openbsd in
  row4 "Phase (times scaled to 10k files)" "HiStar" "Linux" "OpenBSD";
  p_small "create, async" (fun r -> Some r.create_async) hi li bi
    ~paper_note:"0.31 s / 0.316 s / 0.22 s";
  p_small "create, per-file sync" (fun r -> Some r.create_sync) hi li bi
    ~paper_note:"459 s / 558 s / —";
  p_small "create, group sync" (fun r -> Some r.create_group) hi li bi
    ~paper_note:"2.57 s / — / —";
  p_small "read, cached" (fun r -> Some r.read_cached) hi li bi
    ~paper_note:"0.16 s / 0.068 s / 0.14 s";
  p_small "read, uncached (no prefetch)" (fun r -> r.read_uncached) hi li bi
    ~paper_note:"86.4 s / 86.6 s / — (no-lookahead row)";
  p_small "unlink, async" (fun r -> Some r.unlink_async) hi li bi
    ~paper_note:"0.090 s / 0.244 s / 0.068 s";
  p_small "unlink, per-file sync" (fun r -> Some r.unlink_sync) hi li bi
    ~paper_note:"456 s / 173 s / —";
  p_small "unlink, group sync" (fun r -> r.unlink_group) hi li bi
    ~paper_note:"0.38 s / — / —";
  header
    (Printf.sprintf
       "Figure 12 (lower): LFS large-file benchmark (%d MB, scaled to 100 MB)"
       !large_mb);
  let h_seq, h_rand, h_read =
    histar_large ~mb:!large_mb ~writes:!rand_writes
  in
  let l_seq, l_rand, l_read = baseline_large Unixsim.Linux in
  row4 "Phase" "HiStar" "Linux" "OpenBSD";
  row4 "sequential write + fsync"
    (fmt_time_s (scale_large h_seq))
    (fmt_time_s (scale_large l_seq))
    na;
  paper "2.14 s / 3.88 s / —";
  row4
    (Printf.sprintf "sync random writes (scaled to %d)" paper_rand_writes)
    (fmt_time_s (scale_rand h_rand))
    (fmt_time_s (scale_rand l_rand))
    na;
  paper "93.0 s / 89.7 s / —";
  row4 "uncached sequential read"
    (fmt_time_s (scale_large h_read))
    (fmt_time_s (scale_large l_read))
    na;
  paper "1.96 s / 1.80 s / —"
