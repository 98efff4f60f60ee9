(* Shared plumbing for the three workloads: run configuration, seeded
   operation decks, the per-operation recorder, and the assembly of
   end-to-end and per-layer metrics from what a run recorded. *)

module Metrics = Histar_metrics.Metrics
module Rng = Histar_util.Rng

type stop =
  | Deadline of float  (** measure for this many wall seconds *)
  | Ops of int  (** measure exactly this many operations *)

type cfg = {
  seed : int64;
  stop : stop;
  setup_only : bool;  (** build and preload, then return without measuring *)
}

let wall = Unix.gettimeofday

(* ---------- seeded inputs ---------- *)

(* An endless shuffled deck: every [total] draws hold exactly [count]
   of each item, so the two halves of a run see the same operation mix
   and [wall_drift] measures the program, not the dice. *)
let deck rng spec =
  let cards =
    Array.of_list (List.concat_map (fun (x, n) -> List.init n (fun _ -> x)) spec)
  in
  let pos = ref (Array.length cards) in
  fun () ->
    if !pos >= Array.length cards then begin
      for i = Array.length cards - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = cards.(i) in
        cards.(i) <- cards.(j);
        cards.(j) <- t
      done;
      pos := 0
    end;
    let x = cards.(!pos) in
    incr pos;
    x

(* Printable filler, so the plaintext scan can search for it. *)
let text rng n = String.init n (fun _ -> Char.chr (97 + Rng.int rng 26))

(* ---------- recording ---------- *)

type recorder = {
  mutable t0 : float;
  mutable v0 : int64;
  mutable n : int;  (** operations attempted *)
  mutable failed : int;  (** failed or incorrect *)
  mutable first_failure : string option;
  mutable lat : int64 array;  (** virtual latency per operation, ns *)
  mutable done_at : float array;  (** wall completion time per operation *)
}

let recorder () =
  {
    t0 = 0.0;
    v0 = 0L;
    n = 0;
    failed = 0;
    first_failure = None;
    lat = Array.make 1024 0L;
    done_at = Array.make 1024 0.0;
  }

let begin_phase r ~virt =
  r.t0 <- wall ();
  r.v0 <- virt

let record r ~virt_ns ~ok ~what =
  if r.n = Array.length r.lat then begin
    let grow a fill =
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    r.lat <- grow r.lat 0L;
    r.done_at <- grow r.done_at 0.0
  end;
  r.lat.(r.n) <- virt_ns;
  r.done_at.(r.n) <- wall ();
  r.n <- r.n + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if r.first_failure = None then r.first_failure <- Some what
  end

(* Whether a closed-loop client should start another operation. *)
let keep_going cfg r ~started =
  match cfg.stop with
  | Deadline s -> wall () -. r.t0 < s
  | Ops n -> started < n

(* ---------- statistics ---------- *)

(* Linear interpolation between closest ranks. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  quantile a 0.5

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ---------- results ---------- *)

type gc_mark = { alloc : float; majors : int; heap : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    alloc = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    majors = s.Gc.major_collections;
    heap = s.Gc.heap_words;
  }

type window = { delta : Metrics.snapshot; gc0 : gc_mark; gc1 : gc_mark }

(* Bracket a measured phase: [close ()] returns the registry delta and
   the GC marks at both ends. *)
let open_window () =
  let before = Metrics.snapshot () and gc0 = gc_mark () in
  fun () ->
    let gc1 = gc_mark () in
    { delta = Metrics.diff ~before ~after:(Metrics.snapshot ()); gc0; gc1 }

(* The window of a set-up-only run, which measures nothing. *)
let no_window () = { delta = []; gc0 = gc_mark (); gc1 = gc_mark () }

type outcome = {
  rec_ : recorder;
  t_end : float;
  virt_ns : int64;  (** virtual time the measured phase took *)
  setup_s : float;
  checks : (string * bool) list;  (** named post-run output checks *)
  layers : (string * float) list;  (** workload-specific layer metrics *)
  user_bytes : int;  (** bytes the workload wrote and had acknowledged *)
  window : window;  (** registry and GC deltas over the measured phase *)
  needles : string list;  (** plaintext that must never reach a dump *)
}

let wall_s o = o.t_end -. o.rec_.t0

let end_to_end o =
  let r = o.rec_ in
  let n = r.n in
  let lat = Array.init n (fun i -> Int64.to_float r.lat.(i) /. 1e3) in
  Array.sort compare lat;
  let half = n / 2 in
  let drift =
    if half = 0 || n - half = 0 then 0.0
    else
      let mid = r.done_at.(half - 1) in
      ratio ((o.t_end -. mid) /. fi (n - half)) ((mid -. r.t0) /. fi half)
  in
  let gc = Gc.quick_stat () in
  [
    ("wall_ops_per_s", ratio (fi n) (wall_s o));
    ("wall_drift", drift);
    ("virt_ops_per_s", ratio (fi n) (Int64.to_float o.virt_ns /. 1e9));
    ("virt_p50_us", quantile lat 0.50);
    ("virt_p99_us", quantile lat 0.99);
    ("ok_frac", ratio (fi (n - r.failed)) (fi n));
    ("setup_s", o.setup_s);
    ("heap_peak_mb", fi (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  ]

(* ---------- per-layer metrics ---------- *)

(* Layer metrics only some workloads produce (span timings, cluster
   accounting); the others report them as 0. *)
let workload_layers =
  [
    "kernel.sync_all.wall_us"; "kernel.sync_all.virt_us";
    "unix.read.wall_us"; "unix.read.virt_us";
    "unix.fsync_range.wall_us"; "unix.fsync_range.virt_us";
    "unix.create_fsync.wall_us"; "unix.create_fsync.virt_us";
    "net.connect.wall_us"; "net.recv.wall_us";
    "net.wall_us_per_kb.small"; "net.wall_us_per_kb.large";
    "apps.render_util"; "apps.served_imbalance";
    "dist.drive_wall_us_per_round"; "dist.rounds_per_req";
  ]

(* Counter-derived layer metrics, common to every workload, from the
   registry delta over the measured phase, then [workload_layers]
   from [o.layers]. *)
let layer_metrics o =
  let { delta; gc0; gc1 } = o.window in
  let c name = fi (Metrics.value_in delta name) in
  let ops = fi o.rec_.n in
  let per_op x = ratio x ops in
  let virt = Int64.to_float o.virt_ns in
  let decisions = c "label.checks" +. c "label.elided" in
  let busy = c "disk.seek_ns" +. c "disk.rotate_ns" +. c "disk.transfer_ns" in
  let media_bytes = c "disk.media_sector_writes" *. 512.0 in
  let mb_of_words w = fi (w * (Sys.word_size / 8)) /. 1e6 in
  let common =
    [
      ("label.elide_ratio", ratio (c "label.elided") decisions);
      ("label.elided", c "label.elided");
      ("label.decisions", decisions);
      ("label.checks_per_op", per_op (c "label.checks"));
      ("kernel.syscalls_per_op", per_op (c "kernel.syscalls"));
      ("kernel.syscall_virt_us_per_op", per_op (c "kernel.syscall_ns_sum" /. 1e3));
      ("wal.sectors_per_commit", ratio (c "wal.commit_sectors") (c "wal.commits"));
      ( "store.synced_oids_per_sync",
        ratio (c "store.synced_oids") (c "store.sync_batches") );
      ("btree.touches_per_op", per_op (c "btree.node_touches"));
      ( "store.checkpoint_virt_ms",
        ratio (c "store.checkpoint_ns_sum") (c "store.checkpoint_ns_count") /. 1e6 );
      ("disk.write_amp", ratio media_bytes (fi o.user_bytes));
      ("disk.media_bytes_written", media_bytes);
      ("disk.user_bytes_acked", fi o.user_bytes);
      ("disk.flushes_per_op", per_op (c "disk.flushes"));
      ("disk.busy_share", ratio busy virt);
      ("disk.busy_ms", busy /. 1e6);
      ("disk.virt_elapsed_ms", virt /. 1e6);
      ("net.frames_per_fetch", per_op (c "net.frames_sent"));
      ( "net.retransmit_ratio",
        ratio (c "net.segments_retransmitted") (c "net.segments_sent") );
      ("net.segments_retransmitted", c "net.segments_retransmitted");
      ("net.segments_sent", c "net.segments_sent");
      ( "webcluster.session_hit_ratio",
        ratio (c "webcluster.session_hits") (c "webcluster.requests") );
      ("webcluster.session_hits", c "webcluster.session_hits");
      ("webcluster.requests", c "webcluster.requests");
      ("dist.calls_per_req", ratio (c "net.dist_calls") (c "webcluster.requests"));
      ("dist.conn_reuse_ratio", ratio (c "net.dist_conn_reused") (c "net.dist_calls"));
      ("dist.conn_reused", c "net.dist_conn_reused");
      ("dist.calls", c "net.dist_calls");
      ("gc.alloc_words_per_op", per_op (gc1.alloc -. gc0.alloc));
      ("gc.major_per_kop", per_op (fi (gc1.majors - gc0.majors)) *. 1e3);
      ("gc.heap_growth_mb_per_kop", per_op (mb_of_words (gc1.heap - gc0.heap)) *. 1e3);
      ("virt.latency_samples", ops);
    ]
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k workload_layers) then invalid_arg ("undeclared layer metric " ^ k))
    o.layers;
  common
  @ List.map (fun k -> (k, Option.value (List.assoc_opt k o.layers) ~default:0.0)) workload_layers

(* Median of the wall (us) and virtual (us) durations of the spans
   named [name] — the per-call cost of one layer entry point. *)
let span_medians spans name =
  let ss = List.filter (fun s -> String.equal s.Span.name name) spans in
  ( median (List.map (fun s -> (s.Span.w1 -. s.Span.w0) *. 1e6) ss),
    median (List.map (fun s -> Int64.to_float (Int64.sub s.Span.v1 s.Span.v0) /. 1e3) ss) )

let span_layers spans names =
  List.concat_map
    (fun name ->
      let w, v = span_medians spans name in
      [ (name ^ ".wall_us", w); (name ^ ".virt_us", v) ])
    names
