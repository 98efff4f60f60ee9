module Disk = Histar_disk.Disk
module Clock = Histar_util.Sim_clock
open Histar_store

let geometry = { Disk.sectors = 500_000; sector_bytes = 512 }

let mk ?(wal_sectors = 1024) ?(apply_threshold = 1000) () =
  let clock = Clock.create () in
  let disk = Disk.create ~geometry ~clock () in
  let store = Store.format ~disk ~wal_sectors ~apply_threshold () in
  (clock, disk, store)

(* ---------- extent allocator ---------- *)

let test_alloc_basic () =
  let a = Extent_alloc.create () in
  Extent_alloc.add_region a ~start:100 ~sectors:1000;
  Alcotest.(check int) "free" 1000 (Extent_alloc.free_sectors a);
  let s1 = Option.get (Extent_alloc.alloc a ~sectors:10) in
  let s2 = Option.get (Extent_alloc.alloc a ~sectors:10) in
  Alcotest.(check bool) "disjoint" true (abs (s1 - s2) >= 10);
  Alcotest.(check int) "free after" 980 (Extent_alloc.free_sectors a);
  Extent_alloc.check_invariants a

let test_alloc_best_fit () =
  let a = Extent_alloc.create () in
  Extent_alloc.add_region a ~start:0 ~sectors:100;
  Extent_alloc.add_region a ~start:1000 ~sectors:10;
  (* A 10-sector request should take the exact-fit small extent. *)
  let s = Option.get (Extent_alloc.alloc a ~sectors:10) in
  Alcotest.(check int) "best fit" 1000 s;
  Extent_alloc.check_invariants a

let test_alloc_exhaustion () =
  let a = Extent_alloc.create () in
  Extent_alloc.add_region a ~start:0 ~sectors:64;
  Alcotest.(check (option int)) "too big" None (Extent_alloc.alloc a ~sectors:65);
  let _ = Option.get (Extent_alloc.alloc a ~sectors:64) in
  Alcotest.(check (option int)) "empty" None (Extent_alloc.alloc a ~sectors:1)

let test_free_coalesce () =
  let a = Extent_alloc.create () in
  Extent_alloc.add_region a ~start:0 ~sectors:300;
  let s1 = Option.get (Extent_alloc.alloc a ~sectors:100) in
  let s2 = Option.get (Extent_alloc.alloc a ~sectors:100) in
  let s3 = Option.get (Extent_alloc.alloc a ~sectors:100) in
  Extent_alloc.free a ~start:s1 ~sectors:100;
  Extent_alloc.free a ~start:s3 ~sectors:100;
  Extent_alloc.free a ~start:s2 ~sectors:100;
  Extent_alloc.check_invariants a;
  Alcotest.(check int) "fully coalesced" 1 (Extent_alloc.extent_count a);
  Alcotest.(check int) "largest" 300 (Extent_alloc.largest_extent a)

let test_double_free_detected () =
  let a = Extent_alloc.create () in
  Extent_alloc.add_region a ~start:0 ~sectors:100;
  let s = Option.get (Extent_alloc.alloc a ~sectors:10) in
  Extent_alloc.free a ~start:s ~sectors:10;
  (try
     Extent_alloc.free a ~start:s ~sectors:10;
     Alcotest.fail "double free not detected"
   with Failure _ -> ())

let prop_alloc_model =
  QCheck2.Test.make ~name:"allocator conserves space" ~count:200
    QCheck2.Gen.(list_size (int_bound 100) (int_range 1 32))
    (fun sizes ->
      let a = Extent_alloc.create () in
      Extent_alloc.add_region a ~start:0 ~sectors:10_000;
      let allocated =
        List.filter_map
          (fun sectors ->
            Extent_alloc.alloc a ~sectors
            |> Option.map (fun start -> (start, sectors)))
          sizes
      in
      let total_alloc = List.fold_left (fun acc (_, n) -> acc + n) 0 allocated in
      let ok1 = Extent_alloc.free_sectors a = 10_000 - total_alloc in
      List.iter (fun (start, sectors) -> Extent_alloc.free a ~start ~sectors) allocated;
      Extent_alloc.check_invariants a;
      ok1
      && Extent_alloc.free_sectors a = 10_000
      && Extent_alloc.extent_count a = 1)

(* ---------- store ---------- *)

let test_put_get () =
  let _, _, s = mk () in
  Store.put s ~oid:1L "hello";
  Store.put s ~oid:2L "world";
  Alcotest.(check (option string)) "get 1" (Some "hello") (Store.get s ~oid:1L);
  Alcotest.(check (option string)) "get 2" (Some "world") (Store.get s ~oid:2L);
  Alcotest.(check (option string)) "absent" None (Store.get s ~oid:3L);
  Alcotest.(check int) "count" 2 (Store.object_count s)

let test_checkpoint_persists () =
  let clock, disk, s = mk () in
  ignore clock;
  Store.put s ~oid:10L (String.make 5000 'a');
  Store.put s ~oid:11L "small";
  Store.checkpoint s;
  Alcotest.(check int) "nothing dirty" 0 (Store.dirty_count s);
  let s' = Store.recover ~disk in
  Alcotest.(check (option string)) "big object" (Some (String.make 5000 'a'))
    (Store.get s' ~oid:10L);
  Alcotest.(check (option string)) "small object" (Some "small")
    (Store.get s' ~oid:11L);
  Store.check_invariants s'

let test_unsynced_lost_on_crash () =
  let _, disk, s = mk () in
  Store.put s ~oid:1L "durable";
  Store.checkpoint s;
  Store.put s ~oid:2L "lost";
  (* no sync, no checkpoint; simulate power cut by recovering from media *)
  let s' = Store.recover ~disk in
  Alcotest.(check (option string)) "durable survives" (Some "durable")
    (Store.get s' ~oid:1L);
  Alcotest.(check (option string)) "unsynced gone" None (Store.get s' ~oid:2L)

let test_sync_oid_survives () =
  let _, disk, s = mk () in
  Store.put s ~oid:5L "fsynced data";
  Store.sync_oid s ~oid:5L;
  let s' = Store.recover ~disk in
  Alcotest.(check (option string)) "fsynced survives" (Some "fsynced data")
    (Store.get s' ~oid:5L)

let test_sync_delete_survives () =
  let _, disk, s = mk () in
  Store.put s ~oid:5L "data";
  Store.checkpoint s;
  Store.delete s ~oid:5L;
  Store.sync_oid s ~oid:5L;
  let s' = Store.recover ~disk in
  Alcotest.(check (option string)) "synced delete survives" None
    (Store.get s' ~oid:5L)

let test_rewrite_changes_size () =
  let _, disk, s = mk () in
  Store.put s ~oid:7L (String.make 4096 'x');
  Store.checkpoint s;
  let free1 = Store.free_sectors s in
  Store.put s ~oid:7L "tiny";
  Store.checkpoint s;
  let free2 = Store.free_sectors s in
  Alcotest.(check bool) "space reclaimed" true (free2 > free1);
  let s' = Store.recover ~disk in
  Alcotest.(check (option string)) "rewritten" (Some "tiny") (Store.get s' ~oid:7L);
  Store.check_invariants s'

let test_apply_threshold_triggers_checkpoint () =
  let _, _, s = mk ~apply_threshold:10 () in
  for i = 1 to 25 do
    let oid = Int64.of_int i in
    Store.put s ~oid "x";
    Store.sync_oid s ~oid
  done;
  let st = Store.stats s in
  Alcotest.(check bool) "log applied at least twice" true (st.Store.log_applies >= 2)

let test_drop_cache_rereads () =
  let _, _, s = mk () in
  Store.put s ~oid:1L "payload";
  Store.checkpoint s;
  Store.drop_clean_cache s;
  let st = Store.stats s in
  let misses0 = st.Store.cache_misses in
  Alcotest.(check (option string)) "reread from disk" (Some "payload")
    (Store.get s ~oid:1L);
  Alcotest.(check bool) "cache miss happened" true (st.Store.cache_misses > misses0);
  (* second read hits cache *)
  let hits0 = st.Store.cache_hits in
  ignore (Store.get s ~oid:1L);
  Alcotest.(check bool) "then cache hit" true (st.Store.cache_hits > hits0)

let test_group_sync_faster_than_per_file_sync () =
  (* The paper's headline storage result: group sync beats per-file sync
     by orders of magnitude (459s vs 2.57s for 10k files). *)
  let n = 300 in
  let clock1, _, s1 = mk ~wal_sectors:8192 () in
  for i = 1 to n do
    Store.put s1 ~oid:(Int64.of_int i) (String.make 1024 'd');
    Store.sync_oid s1 ~oid:(Int64.of_int i)
  done;
  let per_file_ns = Clock.now_ns clock1 in
  let clock2, _, s2 = mk ~wal_sectors:8192 () in
  for i = 1 to n do
    Store.put s2 ~oid:(Int64.of_int i) (String.make 1024 'd')
  done;
  Store.checkpoint s2;
  let group_ns = Clock.now_ns clock2 in
  Alcotest.(check bool)
    (Printf.sprintf "per-file %Ldns >> group %Ldns" per_file_ns group_ns)
    true
    (per_file_ns > Int64.mul 15L group_ns)

let test_sync_range_in_place () =
  let clock, disk, s = mk () in
  let big = Bytes.make 100_000 'a' in
  Store.put s ~oid:9L ~header_len:0 (Bytes.to_string big);
  Store.checkpoint s;
  (* modify a small range and flush it in place *)
  Bytes.fill big 50_000 100 'b';
  Store.put s ~oid:9L (Bytes.to_string big);
  let t0 = Clock.now_ns clock in
  let commits0 = (Store.stats s).Store.wal_commits in
  let in_place =
    Store.sync_range s ~oid:9L ~header:"" ~body:big ~body_len:(Bytes.length big)
      ~off:50_000 ~len:100
  in
  Alcotest.(check bool) "in-place path taken" true in_place;
  let dt = Int64.sub (Clock.now_ns clock) t0 in
  Alcotest.(check int) "no log commit" commits0 (Store.stats s).Store.wal_commits;
  (* cheap: a couple of sectors plus one barrier, far below a full
     100 KB object sync *)
  Alcotest.(check bool) (Printf.sprintf "%Ldns" dt) true (dt < 30_000_000L);
  (* recovery sees the new bytes *)
  let s' = Store.recover ~disk in
  (match Store.get s' ~oid:9L with
  | Some v ->
      Alcotest.(check char) "patched" 'b' v.[50_050];
      Alcotest.(check char) "rest intact" 'a' v.[0];
      Alcotest.(check int) "length" 100_000 (String.length v)
  | None -> Alcotest.fail "object lost");
  Store.check_invariants s'

let test_same_length_rewrite () =
  (* A checkpoint of a same-length payload refreshes the cached image
     chunk by chunk; a change in any byte — the first, one inside a
     later chunk, or the last of a ragged tail — must reach the new
     home. *)
  let _, disk, s = mk () in
  let v = Bytes.make 10_003 'p' in
  Store.put s ~oid:4L (Bytes.to_string v);
  Store.checkpoint s;
  List.iter
    (fun pos ->
      Bytes.set v pos (Char.chr (Char.code (Bytes.get v pos) + 1));
      Store.put s ~oid:4L (Bytes.to_string v);
      Store.checkpoint s;
      let s' = Store.recover ~disk in
      Store.fsck s';
      Alcotest.(check (option string)) (Printf.sprintf "byte %d rewritten" pos)
        (Some (Bytes.to_string v)) (Store.get s' ~oid:4L))
    [ 0; 5_000; 10_002 ]

(* A crash-style copy of the platter: what a power cut would leave. *)
let crash_copy disk = Disk.restore (Disk.snapshot disk) ~clock:(Clock.create ())

let test_sync_range_partial_dirty () =
  (* A put changes ranges A and B; flushing only A must make exactly A
     durable. The header root describes the platter, so B — never
     written — is not claimed by it. *)
  let _, disk, s = mk () in
  let old = Bytes.make 20_000 'o' in
  Store.put s ~oid:5L ~header_len:0 (Bytes.to_string old);
  Store.checkpoint s;
  let body = Bytes.copy old in
  Bytes.fill body 1_000 300 'A';
  Bytes.fill body 15_000 300 'B';
  Store.put s ~oid:5L ~header_len:0 (Bytes.to_string body);
  Alcotest.(check bool) "in-place path taken" true
    (Store.sync_range s ~oid:5L ~header:"" ~body ~body_len:(Bytes.length body)
       ~off:1_000 ~len:300);
  Store.fsck s;
  Alcotest.(check (option string)) "pending put still visible"
    (Some (Bytes.to_string body)) (Store.get s ~oid:5L);
  let s' = Store.recover ~disk:(crash_copy disk) in
  Store.fsck s';
  (match Store.get s' ~oid:5L with
  | Some v ->
      Alcotest.(check char) "A is new" 'A' v.[1_100];
      Alcotest.(check char) "B is old" 'o' v.[15_100];
      Alcotest.(check int) "length" 20_000 (String.length v)
  | None -> Alcotest.fail "object lost");
  (* B stays pending and the next checkpoint makes it durable. *)
  Store.checkpoint s;
  let s'' = Store.recover ~disk:(crash_copy disk) in
  Store.fsck s'';
  Alcotest.(check (option string)) "checkpoint makes B durable"
    (Some (Bytes.to_string body)) (Store.get s'' ~oid:5L)

let test_sync_range_body_len () =
  (* The body buffer may run past the payload (a segment's spare
     capacity): only its first [body_len] bytes are the object, on the
     in-place path and on the log fallback alike, and a range reaching
     past [body_len] is clamped to it. *)
  let _, disk, s = mk () in
  let body_len = 12_000 and header = "hdr" in
  let body = Bytes.make 20_000 'J' in
  Bytes.fill body 0 body_len 'o';
  let payload () = header ^ Bytes.sub_string body 0 body_len in
  Store.put s ~oid:3L ~header_len:3 (payload ());
  Store.checkpoint s;
  Bytes.fill body 11_000 1_000 'n';
  Alcotest.(check bool) "in-place path taken" true
    (Store.sync_range s ~oid:3L ~header ~body ~body_len ~off:11_000 ~len:5_000);
  Alcotest.(check bool) "log path taken" false
    (Store.sync_range s ~oid:13L ~header ~body ~body_len ~off:0 ~len:10);
  Store.fsck s;
  let s' = Store.recover ~disk:(crash_copy disk) in
  Store.fsck s';
  Alcotest.(check (option string)) "in-place flush recovers exact"
    (Some (payload ())) (Store.get s' ~oid:3L);
  Alcotest.(check (option string)) "logged flush recovers exact"
    (Some (payload ())) (Store.get s' ~oid:13L)

let test_sync_range_after_log_falls_back () =
  (* Recovery replays a logged record over the home image, so once an
     object is in the log a range flush must go to the log too, or the
     replay would undo it. *)
  let _, disk, s = mk () in
  let body = Bytes.make 10_000 'a' in
  Store.put s ~oid:6L ~header_len:0 (Bytes.to_string body);
  Store.checkpoint s;
  Bytes.fill body 0 10 'L';
  Store.put s ~oid:6L ~header_len:0 (Bytes.to_string body);
  Store.sync_oid s ~oid:6L;
  Bytes.fill body 9_000 10 'R';
  Alcotest.(check bool) "log path taken" false
    (Store.sync_range s ~oid:6L ~header:"" ~body ~body_len:(Bytes.length body)
       ~off:9_000 ~len:10);
  let s' = Store.recover ~disk:(crash_copy disk) in
  Store.fsck s';
  Alcotest.(check (option string)) "both writes durable"
    (Some (Bytes.to_string body)) (Store.get s' ~oid:6L)

(* The root checksum of a home image, from its definition: the fnv64
   of the payload length (u32 LE) followed by, for each run of 64 chunk
   sums, the fnv64 of those sums, each chunk sum the fnv64 of 4 KB of
   payload. *)
let reference_root payload =
  let fnv = Histar_util.Checksum.fnv64 in
  let len = String.length payload in
  let sums = Buffer.create 64 and runs = Buffer.create 64 in
  for c = 0 to ((len + 4095) / 4096) - 1 do
    Buffer.add_int64_le sums (fnv (String.sub payload (c * 4096) (min 4096 (len - (c * 4096)))))
  done;
  let sums = Buffer.contents sums in
  Buffer.add_int32_le runs (Int32.of_int len);
  for r = 0 to ((String.length sums + 511) / 512) - 1 do
    let n = min 512 (String.length sums - (r * 512)) in
    Buffer.add_int64_le runs (fnv (String.sub sums (r * 512) n))
  done;
  fnv (Buffer.contents runs)

(* Random range flushes over a checkpointed object: after each, the
   root in the home image equals a from-scratch recompute over the
   payload on the platter, and that payload is the last checkpoint with
   exactly the flushed header and ranges applied. Then flipping any
   byte of the image's header or payload is caught by [get] and
   [fsck]. *)
let prop_incremental_root =
  let open QCheck2.Gen in
  let patch size =
    (* offsets anywhere, lengths up to two chunks and a bit: unaligned,
       chunk- and sector-straddling, touching the header sector or
       running past the end of the body *)
    map3
      (fun off len header_change -> (off, len, header_change))
      (oneof [ int_bound 700; int_bound size ])
      (int_range 0 9_000) (int_bound 3)
  in
  let gen =
    let* header_len = int_bound 600 in
    let* size = int_range 1 40_000 in
    let* patches = list_size (int_range 1 12) (patch size) in
    let* flip = int in
    return (header_len, size, patches, flip)
  in
  QCheck2.Test.make ~name:"range flush keeps the root a from-scratch recompute"
    ~count:60 gen (fun (header_len, size, patches, flip) ->
      let _, disk, s = mk () in
      let header = Bytes.make header_len 'h' and body = Bytes.make size 'b' in
      let payload () = Bytes.to_string header ^ Bytes.to_string body in
      Store.put s ~oid:7L ~header_len (payload ());
      Store.checkpoint s;
      let durable = Bytes.of_string (payload ()) in
      let start, sectors = Option.get (Store.home_extent s ~oid:7L) in
      let home () = Disk.read disk ~sector:start ~count:sectors in
      let ok = ref true in
      List.iteri
        (fun i (off, len, header_change) ->
          let c = Char.chr (Char.code 'A' + (i mod 26)) in
          if header_change = 0 && header_len > 0 then
            Bytes.set header (i mod header_len) c;
          Bytes.fill body (min off size) (max 0 (min len (size - off))) c;
          if not (Store.sync_range s ~oid:7L ~header:(Bytes.to_string header) ~body
                  ~body_len:size ~off ~len)
          then ok := false;
          Bytes.blit header 0 durable 0 header_len;
          let lo = min off size and hi = min (off + len) size in
          Bytes.blit body lo durable (header_len + lo) (hi - lo);
          let image = home () in
          let stored = String.get_int64_le image 8 in
          let on_platter = String.sub image 16 (String.length (payload ())) in
          if not (Int64.equal stored (reference_root on_platter)) then ok := false;
          if not (String.equal on_platter (Bytes.to_string durable)) then ok := false)
        patches;
      Store.fsck s;
      (* Flip one byte of the image header or payload on a crash copy. *)
      let disk' = crash_copy disk in
      let pos = abs flip mod (16 + size + header_len) in
      let sector = start + (pos / 512) in
      let b = Bytes.of_string (Disk.read disk' ~sector ~count:1) in
      Bytes.set b (pos mod 512) (Char.chr (Char.code (Bytes.get b (pos mod 512)) lxor 0x20));
      Disk.write disk' ~sector (Bytes.to_string b);
      Disk.flush disk';
      let caught f = match f () with _ -> false | exception _ -> true in
      let s' = Store.recover ~disk:disk' in
      !ok
      && caught (fun () -> Store.get s' ~oid:7L)
      && caught (fun () -> Store.fsck s'))

let prop_store_model =
  (* Random puts/deletes/syncs/checkpoints followed by recovery must
     agree with a Hashtbl model of everything made durable. *)
  let open QCheck2.Gen in
  let op =
    oneof
      [
        map2 (fun k v -> `Put (Int64.of_int k, v)) (int_bound 20)
          (string_size (int_bound 200));
        map (fun k -> `Delete (Int64.of_int k)) (int_bound 20);
        map (fun k -> `Sync (Int64.of_int k)) (int_bound 20);
        return `Checkpoint;
      ]
  in
  QCheck2.Test.make ~name:"store recovery matches durable model" ~count:60
    (list_size (int_bound 60) op) (fun ops ->
      let _, disk, s = mk ~wal_sectors:4096 () in
      let live = Hashtbl.create 16 in
      let durable = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | `Put (oid, v) ->
              Store.put s ~oid v;
              Hashtbl.replace live oid v
          | `Delete oid ->
              Store.delete s ~oid;
              Hashtbl.remove live oid
          | `Sync oid -> (
              Store.sync_oid s ~oid;
              match Hashtbl.find_opt live oid with
              | Some v -> Hashtbl.replace durable oid v
              | None -> Hashtbl.remove durable oid)
          | `Checkpoint ->
              Store.checkpoint s;
              Hashtbl.reset durable;
              Hashtbl.iter (Hashtbl.replace durable) live)
        ops;
      let s' = Store.recover ~disk in
      Hashtbl.fold
        (fun oid v acc -> acc && Store.get s' ~oid = Some v)
        durable true
      && Store.object_count s' = Hashtbl.length durable)

let test_crash_during_auto_apply () =
  (* with a tiny threshold, a sync triggers a full checkpoint; a crash
     there must still recover a consistent prefix *)
  let _, disk, s = mk ~wal_sectors:4096 ~apply_threshold:3 () in
  for i = 1 to 2 do
    Store.put s ~oid:(Int64.of_int i) (Printf.sprintf "v%d" i);
    Store.sync_oid s ~oid:(Int64.of_int i)
  done;
  Disk.set_crash_after_writes disk 4;
  (* the 3rd sync crosses the threshold and checkpoints mid-crash *)
  (match
     Store.put s ~oid:3L "v3";
     Store.sync_oid s ~oid:3L
   with
  | () -> ()
  | exception Disk.Crashed -> ());
  let disk' = if Disk.crashed disk then Disk.reopen_after_crash disk else disk in
  let s' = Store.recover ~disk:disk' in
  Store.check_invariants s';
  (* objects 1 and 2 were durable before the crash; 3 may or may not be *)
  Alcotest.(check (option string)) "obj1" (Some "v1") (Store.get s' ~oid:1L);
  Alcotest.(check (option string)) "obj2" (Some "v2") (Store.get s' ~oid:2L);
  match Store.get s' ~oid:3L with
  | Some "v3" | None -> ()
  | Some other -> Alcotest.fail ("garbage: " ^ other)

let prop_store_crash_during_checkpoint =
  (* A crash in the middle of a checkpoint must recover to the previous
     consistent snapshot (plus any logged records). *)
  QCheck2.Test.make ~name:"crash during checkpoint is atomic" ~count:40
    QCheck2.Gen.(pair (int_range 1 30) (int_range 0 40))
    (fun (nobj, crash_after) ->
      let _, disk, s = mk ~wal_sectors:4096 () in
      for i = 1 to nobj do
        Store.put s ~oid:(Int64.of_int i) (Printf.sprintf "gen1-%d" i)
      done;
      Store.checkpoint s;
      for i = 1 to nobj do
        Store.put s ~oid:(Int64.of_int i) (Printf.sprintf "gen2-%d" i)
      done;
      Disk.set_crash_after_writes disk crash_after;
      let crashed =
        match Store.checkpoint s with
        | () -> false
        | exception Disk.Crashed -> true
      in
      let disk' = if crashed then Disk.reopen_after_crash disk else disk in
      let s' = Store.recover ~disk:disk' in
      (* Every object must read back as gen1 or gen2 consistently with a
         whole-snapshot semantics: either all gen1 or all gen2. *)
      let gens =
        List.init nobj (fun i ->
            match Store.get s' ~oid:(Int64.of_int (i + 1)) with
            | Some v when String.length v >= 4 -> String.sub v 0 4
            | Some _ | None -> "????")
      in
      List.for_all (String.equal "gen1") gens
      || List.for_all (String.equal "gen2") gens)

(* ---------- branchable stores (Store.fork) ---------- *)

let test_fork_isolation () =
  let _, disk, s = mk () in
  Store.put s ~oid:1L "trunk-1";
  Store.put s ~oid:2L "trunk-2";
  Store.checkpoint s;
  let b = Store.fork s in
  (* Diverge both sides. *)
  Store.put b ~oid:1L "branch-1";
  Store.put b ~oid:3L "branch-only";
  Store.delete b ~oid:2L;
  Store.put s ~oid:4L "trunk-only";
  Alcotest.(check (option string)) "trunk keeps 1" (Some "trunk-1")
    (Store.get s ~oid:1L);
  Alcotest.(check (option string)) "trunk keeps 2" (Some "trunk-2")
    (Store.get s ~oid:2L);
  Alcotest.(check (option string)) "trunk blind to 3" None (Store.get s ~oid:3L);
  Alcotest.(check (option string)) "branch sees rewrite" (Some "branch-1")
    (Store.get b ~oid:1L);
  Alcotest.(check (option string)) "branch sees delete" None
    (Store.get b ~oid:2L);
  Alcotest.(check (option string)) "branch blind to 4" None
    (Store.get b ~oid:4L);
  (* Branch durability is its own: a branch checkpoint lands on the
     branch's disk fork, never the trunk media. *)
  Store.checkpoint b;
  let trunk' = Store.recover ~disk in
  Alcotest.(check (option string)) "trunk media untouched" (Some "trunk-1")
    (Store.get trunk' ~oid:1L);
  Alcotest.(check (option string)) "no branch leak" None
    (Store.get trunk' ~oid:3L);
  let branch' = Store.recover ~disk:(Store.disk b) in
  Alcotest.(check (option string)) "branch media has rewrite"
    (Some "branch-1")
    (Store.get branch' ~oid:1L);
  Store.fsck trunk';
  Store.fsck branch'

let test_fork_mutate_drop_fsck () =
  (* Fan out branches, mutate and checkpoint each (checkpoints truncate
     the WAL, so each branch bumps its own epoch), drop half, and fsck
     every survivor — including after recovery from its own media. *)
  let _, _, s = mk ~wal_sectors:4096 ~apply_threshold:8 () in
  for i = 1 to 10 do
    Store.put s ~oid:(Int64.of_int i) (Printf.sprintf "base-%d" i)
  done;
  Store.checkpoint s;
  let nbranches = 8 in
  let branches =
    List.init nbranches (fun b ->
        let br = Store.fork s in
        for i = 1 to 10 do
          if i mod (b + 2) = 0 then Store.delete br ~oid:(Int64.of_int i)
          else
            Store.put br ~oid:(Int64.of_int i)
              (Printf.sprintf "b%d-%d" b i)
        done;
        Store.sync_oid br ~oid:1L;
        Store.checkpoint br;
        (b, br))
  in
  (* Drop the even branches; the survivors and the trunk must be
     unaffected. *)
  let survivors = List.filter (fun (b, _) -> b mod 2 = 1) branches in
  List.iter
    (fun (b, br) ->
      Store.fsck br;
      for i = 1 to 10 do
        let got = Store.get br ~oid:(Int64.of_int i) in
        let want =
          if i mod (b + 2) = 0 then None else Some (Printf.sprintf "b%d-%d" b i)
        in
        Alcotest.(check (option string))
          (Printf.sprintf "branch %d oid %d" b i)
          want got
      done;
      let br' = Store.recover ~disk:(Store.disk br) in
      Store.fsck br')
    survivors;
  Store.fsck s;
  for i = 1 to 10 do
    Alcotest.(check (option string))
      (Printf.sprintf "trunk oid %d" i)
      (Some (Printf.sprintf "base-%d" i))
      (Store.get s ~oid:(Int64.of_int i))
  done

let test_fork_quarantine_branch_local () =
  (* Satellite: scrub's quarantine set and the WAL epoch metadata are
     branch-local. Quarantining sectors on a fork must not poison the
     trunk's allocator or its quarantine list. *)
  let module Faults = Histar_faults.Faults in
  let sched =
    Faults.Schedule.mk ~seed:5L
      ~disk:
        {
          Faults.Schedule.latent_rate = 0.08;
          transient_rate = 0.05;
          corrupt_rate = 0.02;
        }
      ()
  in
  let clock = Clock.create () in
  let disk =
    Disk.create ?faults:(Faults.Disk_faults.create sched) ~clock ()
  in
  let s = Store.format ~disk ~wal_sectors:1024 () in
  let rng = Histar_util.Rng.create 0xBEEFL in
  for oid = 1 to 50 do
    Store.put s ~oid:(Int64.of_int oid) (Histar_util.Rng.bytes rng (64 + Histar_util.Rng.int rng 2048))
  done;
  Store.checkpoint s;
  let free0 = Store.free_sectors s in
  let b = Store.fork s in
  let report = Store.scrub b in
  Alcotest.(check bool) "branch scrub converged" true report.Store.clean;
  Alcotest.(check bool) "branch quarantined sectors" true
    (report.Store.quarantined_sectors > 0);
  Store.fsck b;
  let branch_quarantine = Store.quarantined_extents b in
  (* The trunk never scrubbed: its quarantine list is still empty, its
     allocator untouched. *)
  Alcotest.(check (list (pair int int))) "trunk quarantine empty" []
    (Store.quarantined_extents s);
  Alcotest.(check int) "trunk allocator untouched" free0
    (Store.free_sectors s);
  (* The trunk can still scrub and settle independently. *)
  let treport = Store.scrub s in
  Alcotest.(check bool) "trunk scrub converged" true treport.Store.clean;
  Store.fsck s;
  (* And the trunk's scrub did not bleed back into the branch: its
     quarantine list is exactly what its own scrub computed. *)
  Alcotest.(check (list (pair int int))) "branch quarantine unchanged"
    branch_quarantine
    (Store.quarantined_extents b);
  (* The fault plan is shared apparatus, so the trunk's repair writes
     may have struck fresh latent marks; one more branch scrub settles
     them and the branch must still fsck clean. *)
  Alcotest.(check bool) "branch re-scrub converged" true
    (Store.scrub b).Store.clean;
  Store.fsck b

let test_fork_range_flush_branch_local () =
  (* A fork shares the cached home images; a range flush on one side
     must copy before patching, so the other side's cache still matches
     its own platter. *)
  let _, _, s = mk () in
  let body = Bytes.make 30_000 't' in
  Store.put s ~oid:8L ~header_len:0 (Bytes.to_string body);
  Store.checkpoint s;
  let b = Store.fork s in
  let branch = Bytes.copy body in
  Bytes.fill branch 100 50 'x';
  Alcotest.(check bool) "branch in place" true
    (Store.sync_range b ~oid:8L ~header:"" ~body:branch
       ~body_len:(Bytes.length branch) ~off:100 ~len:50);
  Alcotest.(check (option string)) "trunk cache untouched"
    (Some (Bytes.to_string body)) (Store.get s ~oid:8L);
  Store.fsck s;
  Store.fsck b;
  Bytes.fill body 20_000 50 'y';
  Alcotest.(check bool) "trunk in place" true
    (Store.sync_range s ~oid:8L ~header:"" ~body ~body_len:(Bytes.length body)
       ~off:20_000 ~len:50);
  Alcotest.(check (option string)) "branch cache untouched"
    (Some (Bytes.to_string branch)) (Store.get b ~oid:8L);
  Store.fsck s;
  Store.fsck b

let () =
  Alcotest.run "histar_store"
    [
      ( "extent_alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "best fit" `Quick test_alloc_best_fit;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "coalesce" `Quick test_free_coalesce;
          Alcotest.test_case "double free" `Quick test_double_free_detected;
          QCheck_alcotest.to_alcotest prop_alloc_model;
        ] );
      ( "store",
        [
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "checkpoint persists" `Quick
            test_checkpoint_persists;
          Alcotest.test_case "unsynced lost" `Quick test_unsynced_lost_on_crash;
          Alcotest.test_case "sync survives" `Quick test_sync_oid_survives;
          Alcotest.test_case "synced delete" `Quick test_sync_delete_survives;
          Alcotest.test_case "rewrite size change" `Quick
            test_rewrite_changes_size;
          Alcotest.test_case "same-length rewrite" `Quick test_same_length_rewrite;
          Alcotest.test_case "apply threshold" `Quick
            test_apply_threshold_triggers_checkpoint;
          Alcotest.test_case "drop cache" `Quick test_drop_cache_rereads;
          Alcotest.test_case "sync_range in place" `Quick
            test_sync_range_in_place;
          Alcotest.test_case "sync_range of a partly synced put" `Quick
            test_sync_range_partial_dirty;
          Alcotest.test_case "sync_range after a log sync" `Quick
            test_sync_range_after_log_falls_back;
          Alcotest.test_case "sync_range of a body prefix" `Quick
            test_sync_range_body_len;
          QCheck_alcotest.to_alcotest prop_incremental_root;
          Alcotest.test_case "group sync wins" `Quick
            test_group_sync_faster_than_per_file_sync;
          Alcotest.test_case "crash during auto-apply" `Quick
            test_crash_during_auto_apply;
          QCheck_alcotest.to_alcotest prop_store_model;
          QCheck_alcotest.to_alcotest prop_store_crash_during_checkpoint;
        ] );
      ( "fork",
        [
          Alcotest.test_case "isolation" `Quick test_fork_isolation;
          Alcotest.test_case "fork/mutate/drop/fsck" `Quick
            test_fork_mutate_drop_fsck;
          Alcotest.test_case "quarantine is branch-local" `Quick
            test_fork_quarantine_branch_local;
          Alcotest.test_case "range flush is branch-local" `Quick
            test_fork_range_flush_branch_local;
        ] );
    ]
