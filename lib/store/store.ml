module Disk = Histar_disk.Disk
module Wal = Histar_wal.Wal
module Bptree = Histar_btree.Bptree
module Codec = Histar_util.Codec
module Checksum = Histar_util.Checksum
module Metrics = Histar_metrics.Metrics
module Trace = Histar_metrics.Trace

(* Checkpoint frequency and virtual-time cost, plus global mirrors of
   the per-instance WAL-path stats, so the benchmark runner's registry
   snapshot sees storage work without holding a store handle. *)
let m_checkpoints = Metrics.counter "store.checkpoints"
let m_checkpoint_ns = Metrics.histogram "store.checkpoint_ns"
let m_sync_batches = Metrics.counter "store.sync_batches"
let m_synced_oids = Metrics.counter "store.synced_oids"
let m_cache_hits = Metrics.counter "store.cache_hits"
let m_cache_misses = Metrics.counter "store.cache_misses"

(* Scrub/repair activity under media faults: objects rewritten to
   fresh homes, sectors permanently quarantined, objects whose payload
   could not be recovered from any copy. *)
let m_recoveries = Metrics.counter "store.recoveries"
let m_recovered_objects = Metrics.counter "store.recovered_objects"
let m_replayed_records = Metrics.counter "store.replayed_records"
let m_scrubs = Metrics.counter "store.scrubs"
let m_repaired = Metrics.counter "store.repaired_objects"
let m_quarantined = Metrics.counter "store.quarantined_sectors"
let m_lost = Metrics.counter "store.lost_objects"

(* Work counters: every byte the store runs through fnv64 (object
   images and checkpoint metadata), and the share of it spent by each
   in-place range flush, which must not grow with the object. *)
let m_bytes_checksummed = Metrics.counter "store.bytes_checksummed"
let m_range_flush_checksummed = Metrics.histogram "store.range_flush_checksummed"

let store_magic = 0x48695374L (* "HiSt" *)
let object_magic = 0x4F424A31 (* "OBJ1" *)

type stats = {
  mutable checkpoints : int;
  mutable wal_commits : int;
  mutable wal_records : int;
  mutable log_applies : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

(* The clean cached copy of a home image: exactly the bytes on the
   platter, with the chunk and run sums its root checksum is made of
   (see "object images" below). [header_len] is the length of the
   payload's fixed prefix that {!sync_range} rewrites whole; [None]
   when unknown (the image was read back from disk). Images are shared
   between a store and its forks; [owner] says which store may patch
   this copy in place. *)
type image = {
  owner : unit ref;
  bytes : Bytes.t;
  len : int;  (** payload length *)
  sums : Bytes.t;  (** fnv64 of each payload chunk, 8 bytes LE each *)
  runs : Bytes.t;  (** payload length u32 LE, then fnv64 of each run of chunk sums *)
  header_len : int option;
}

type pending = { payload : string; header_len : int option }

type t = {
  disk : Disk.t;
  wal : Wal.t;
  wal_sectors : int;
  apply_threshold : int;
  sector_bytes : int;
  mutable object_map : int64 Bptree.t;
      (** oid → packed (start << 24 | sector count). The tree is
          persistent; this field holds the current root, so {!fork} can
          branch the whole map in O(1). *)
  alloc : Extent_alloc.t;
  dirty : (int64, pending option) Hashtbl.t;
      (** pending updates; [None] means deletion *)
  cache : (int64, image) Hashtbl.t;
      (** home images as they are on the platter; a dirty object's
          entry is its last durable home, not its pending contents *)
  logged : (int64, unit) Hashtbl.t;
      (** oids with a record in the current WAL epoch: recovery replays
          that record over the home image, so the home image must not
          be patched in place until the next checkpoint *)
  mutable owner : unit ref;  (** which cached images this handle owns *)
  stats : stats;
  mutable generation : int64;
  mutable checkpoint_extent : (int * int) option;  (** start, sectors *)
  mutable quarantined : (int * int) list;
      (** extents withdrawn from service after a latent media error
          survived retry: never returned to the allocator, persisted in
          the checkpoint metadata, and counted as their own category in
          the {!fsck} tiling proof. Sorted by start. *)
  mutable wal_epoch : int64;
      (** WAL epoch whose records are valid to replay over the snapshot
          this superblock describes. A checkpoint's superblock names the
          post-truncate epoch, so a crash between the superblock write
          and the log truncate cannot replay stale records over the new
          snapshot (which would regress synced objects). *)
}

let wal_start = 1
let default_wal_sectors = 65_536
let pack ~start ~sectors = Int64.logor (Int64.shift_left (Int64.of_int start) 24) (Int64.of_int sectors)

let unpack v =
  let start = Int64.to_int (Int64.shift_right_logical v 24) in
  let sectors = Int64.to_int (Int64.logand v 0xFF_FFFFL) in
  (start, sectors)

let fresh_stats () =
  {
    checkpoints = 0;
    wal_commits = 0;
    wal_records = 0;
    log_applies = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

let sectors_for t bytes = (bytes + t.sector_bytes - 1) / t.sector_bytes

(* ---------- object images ----------

   Image: magic u32, payload length u32, root checksum i64, payload,
   zero padding to a whole sector. The payload is cut into
   [chunk_bytes] chunks, each with its own fnv64; the chunk sums are
   cut into runs of [run_chunks], each hashed again; the root is the
   fnv64 of the payload length followed by the run sums. Patching a
   range re-hashes only the chunks and runs it touched, and the root,
   so a range flush costs O(range) however large the object is. *)

let image_header = 16
let chunk_bytes = 4096
let run_chunks = 64
let chunks len = (len + chunk_bytes - 1) / chunk_bytes

(* fnv64 over a byte range, adding the byte count to [work]. *)
let fnv work b ~pos ~len =
  work := !work + len;
  Checksum.fnv64_bytes b ~pos ~len

let hash_chunk work b ~len ~sums c =
  let pos = c * chunk_bytes in
  Bytes.set_int64_le sums (8 * c)
    (fnv work b ~pos:(image_header + pos) ~len:(min chunk_bytes (len - pos)))

let hash_run work ~sums ~runs r =
  let pos = 8 * r * run_chunks in
  Bytes.set_int64_le runs (4 + (8 * r))
    (fnv work sums ~pos ~len:(min (8 * run_chunks) (Bytes.length sums - pos)))

(* Re-hash payload chunks [c0, c1] of the image in [b], then the runs
   holding them. *)
let rehash work b ~len ~sums ~runs c0 c1 =
  for c = c0 to c1 do
    hash_chunk work b ~len ~sums c
  done;
  for r = c0 / run_chunks to c1 / run_chunks do
    hash_run work ~sums ~runs r
  done

let root work runs = fnv work runs ~pos:0 ~len:(Bytes.length runs)

(* All sums of the payload in [b] (whose length the caller checked),
   and its root. *)
let hash_image work b ~len =
  let n = chunks len in
  let sums = Bytes.create (8 * n) in
  let runs = Bytes.create (4 + (8 * ((n + run_chunks - 1) / run_chunks))) in
  Bytes.set_int32_le runs 0 (Int32.of_int len);
  if n > 0 then rehash work b ~len ~sums ~runs 0 (n - 1);
  (sums, runs, root work runs)

let count_checksummed work = Metrics.Counter.add m_bytes_checksummed !work

(* The image of [payload], built in one buffer. *)
let build_image t ~header_len payload =
  let len = String.length payload in
  let size = sectors_for t (image_header + len) * t.sector_bytes in
  let b = Bytes.create size in
  Bytes.set_int32_le b 0 (Int32.of_int object_magic);
  Bytes.set_int32_le b 4 (Int32.of_int len);
  Bytes.blit_string payload 0 b image_header len;
  Bytes.fill b (image_header + len) (size - image_header - len) '\000';
  let work = ref 0 in
  let sums, runs, sum = hash_image work b ~len in
  count_checksummed work;
  Bytes.set_int64_le b 8 sum;
  { owner = t.owner; bytes = b; len; sums; runs; header_len }

(* Verify an image read from disk: its magic, and its root against the
   payload it carries. [b] is only read. *)
let verify_image b =
  let u32 pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFF_FFFF in
  if Bytes.length b < image_header then raise Codec.Truncated;
  if u32 0 <> object_magic then failwith "Store: bad object magic";
  let len = u32 4 and stored = Bytes.get_int64_le b 8 in
  if image_header + len > Bytes.length b then raise Codec.Truncated;
  let work = ref 0 in
  let sums, runs, sum = hash_image work b ~len in
  count_checksummed work;
  if not (Int64.equal sum stored) then failwith "Store: object checksum mismatch";
  (len, sums, runs)

let check_object_image image = ignore (verify_image (Bytes.unsafe_of_string image))
let payload_of img = Bytes.sub_string img.bytes image_header img.len

(* ---------- superblock ---------- *)

let superblock_image t =
  let e = Codec.Enc.create () in
  Codec.Enc.i64 e store_magic;
  Codec.Enc.i64 e t.generation;
  Codec.Enc.i64 e t.wal_epoch;
  Codec.Enc.u32 e t.apply_threshold;
  Codec.Enc.u32 e t.wal_sectors;
  (match t.checkpoint_extent with
  | None ->
      Codec.Enc.bool e false;
      Codec.Enc.u32 e 0;
      Codec.Enc.u32 e 0
  | Some (start, sectors) ->
      Codec.Enc.bool e true;
      Codec.Enc.u32 e start;
      Codec.Enc.u32 e sectors);
  let body = Codec.Enc.to_string e in
  body ^ String.make (t.sector_bytes - String.length body) '\000'

let write_superblock t =
  Disk.write t.disk ~sector:0 (superblock_image t);
  Disk.flush t.disk

(* ---------- WAL records ---------- *)

let wal_record ~oid update =
  let e = Codec.Enc.create () in
  (match update with
  | Some payload ->
      Codec.Enc.u8 e 1;
      Codec.Enc.i64 e oid;
      Codec.Enc.str e payload
  | None ->
      Codec.Enc.u8 e 2;
      Codec.Enc.i64 e oid);
  Codec.Enc.to_string e

let parse_wal_record payload =
  let d = Codec.Dec.of_string payload in
  match Codec.Dec.u8 d with
  | 1 ->
      let oid = Codec.Dec.i64 d in
      let data = Codec.Dec.str d in
      (oid, Some data)
  | 2 -> (Codec.Dec.i64 d, None)
  | _ -> failwith "Store: unknown WAL record tag"

(* ---------- construction ---------- *)

let format ~disk ?(wal_sectors = default_wal_sectors) ?(apply_threshold = 1000)
    () =
  let geometry = Disk.geometry disk in
  let wal = Wal.format ~disk ~start:wal_start ~sectors:wal_sectors in
  let alloc = Extent_alloc.create () in
  let data_start = wal_start + wal_sectors in
  Extent_alloc.add_region alloc ~start:data_start
    ~sectors:(geometry.Disk.sectors - data_start);
  let t =
    {
      disk;
      wal;
      wal_sectors;
      apply_threshold;
      sector_bytes = geometry.Disk.sector_bytes;
      object_map = Bptree.create ();
      alloc;
      dirty = Hashtbl.create 256;
      cache = Hashtbl.create 256;
      logged = Hashtbl.create 64;
      owner = ref ();
      stats = fresh_stats ();
      generation = 0L;
      checkpoint_extent = None;
      quarantined = [];
      wal_epoch = Wal.epoch wal;
    }
  in
  write_superblock t;
  t

(* ---------- reads ---------- *)

let read_from_home t oid =
  match Bptree.find t.object_map oid with
  | None -> None
  | Some packed ->
      let start, sectors = unpack packed in
      let b = Bytes.of_string (Disk.read_retrying t.disk ~sector:start ~count:sectors) in
      let len, sums, runs = verify_image b in
      Some { owner = t.owner; bytes = b; len; sums; runs; header_len = None }

let get t ~oid =
  match Hashtbl.find_opt t.dirty oid with
  | Some update -> Option.map (fun p -> p.payload) update
  | None -> (
      match Hashtbl.find_opt t.cache oid with
      | Some img ->
          t.stats.cache_hits <- t.stats.cache_hits + 1;
          Metrics.Counter.incr m_cache_hits;
          Some (payload_of img)
      | None -> (
          t.stats.cache_misses <- t.stats.cache_misses + 1;
          Metrics.Counter.incr m_cache_misses;
          match read_from_home t oid with
          | Some img ->
              Hashtbl.replace t.cache oid img;
              Some (payload_of img)
          | None -> None))

let mem t ~oid = Option.is_some (get t ~oid)

(* ---------- writes ---------- *)

(* The cached home image stays: it still describes the platter, and a
   range flush may patch it before the next checkpoint. *)
let put t ~oid ?header_len payload =
  Hashtbl.replace t.dirty oid (Some { payload; header_len })

let delete t ~oid =
  let persistent = Bptree.mem t.object_map oid in
  if persistent then Hashtbl.replace t.dirty oid None
  else Hashtbl.remove t.dirty oid;
  Hashtbl.remove t.cache oid

(* ---------- checkpoint ---------- *)

(* The cached home image of [oid], copied first if a fork shares it,
   so that [t] may patch it in place. *)
let own t oid (img : image) =
  if img.owner == t.owner then img
  else begin
    let img =
      {
        img with
        owner = t.owner;
        bytes = Bytes.copy img.bytes;
        sums = Bytes.copy img.sums;
        runs = Bytes.copy img.runs;
      }
    in
    Hashtbl.replace t.cache oid img;
    img
  end

(* [n] bytes of [s] at [pos] equal those of [b] at [at]. *)
let same_bytes s ~pos b ~at n =
  let rec go i =
    if i + 8 <= n then
      (String.get_int64_ne s (pos + i) : int64) = Bytes.get_int64_ne b (at + i) && go (i + 8)
    else i >= n || (String.get s (pos + i) = Bytes.get b (at + i) && go (i + 1))
  in
  go 0

(* A checkpoint writes the whole image to a fresh home, but the bytes
   mostly equal the cached image's (range flushes patched it already).
   Bring the cached image of the same payload length up to [payload] in
   place, copying and re-hashing only the chunks that differ. *)
let refresh_image t oid img ~header_len payload =
  let img = { (own t oid img) with header_len } in
  let b = img.bytes and work = ref 0 in
  let run_changed = ref false in
  let n = chunks img.len in
  for c = 0 to n - 1 do
    let pos = c * chunk_bytes in
    let len = min chunk_bytes (img.len - pos) in
    if not (same_bytes payload ~pos b ~at:(image_header + pos) len) then begin
      Bytes.blit_string payload pos b (image_header + pos) len;
      hash_chunk work b ~len:img.len ~sums:img.sums c;
      run_changed := true
    end;
    if !run_changed && (c = n - 1 || (c + 1) mod run_chunks = 0) then begin
      hash_run work ~sums:img.sums ~runs:img.runs (c / run_chunks);
      run_changed := false
    end
  done;
  if !work > 0 then Bytes.set_int64_le b 8 (root work img.runs);
  count_checksummed work;
  img

let metadata_checksum body =
  Metrics.Counter.add m_bytes_checksummed (String.length body);
  Checksum.fnv64 body

let encode_metadata ~object_map ~alloc ~quarantined =
  let e = Codec.Enc.create () in
  Bptree.encode e object_map;
  Extent_alloc.encode e alloc;
  Codec.Enc.u32 e (List.length quarantined);
  List.iter
    (fun (start, sectors) ->
      Codec.Enc.u32 e start;
      Codec.Enc.u32 e sectors)
    quarantined;
  let body = Codec.Enc.to_string e in
  let e2 = Codec.Enc.create ~size:(String.length body + 12) () in
  Codec.Enc.i64 e2 (metadata_checksum body);
  Codec.Enc.str e2 body;
  Codec.Enc.to_string e2

(* Crash atomicity: until the new superblock is durable, nothing that
   the *previous* snapshot references may be overwritten. New object
   images and the new metadata image therefore come from free space
   only; extents vacated by this checkpoint are collected in [to_free]
   and returned to the allocator last. The metadata image must describe
   the post-free allocator, so it encodes a copy with the deferred
   frees already applied. *)
let checkpoint t =
  t.stats.checkpoints <- t.stats.checkpoints + 1;
  Metrics.Counter.incr m_checkpoints;
  let clock = Disk.clock t.disk in
  let t0 = Histar_util.Sim_clock.now_ns clock in
  let dirty_at_entry = Hashtbl.length t.dirty in
  let to_free = ref [] in
  (* Write dirty objects to fresh home locations, in oid order for
     locality. *)
  let dirty = Hashtbl.fold (fun oid u acc -> (oid, u) :: acc) t.dirty [] in
  let dirty = List.sort (fun (a, _) (b, _) -> Int64.compare a b) dirty in
  List.iter
    (fun (oid, update) ->
      (match Bptree.find t.object_map oid with
      | Some packed ->
          to_free := unpack packed :: !to_free;
          (match Bptree.remove t.object_map oid with
          | Some m -> t.object_map <- m
          | None -> assert false)
      | None -> ());
      match update with
      | None -> Hashtbl.remove t.cache oid
      | Some { payload; header_len } -> (
          let sectors = sectors_for t (image_header + String.length payload) in
          match Extent_alloc.alloc t.alloc ~sectors with
          | None -> failwith "Store: disk full"
          | Some start ->
              let img =
                match Hashtbl.find_opt t.cache oid with
                | Some img when img.len = String.length payload ->
                    refresh_image t oid img ~header_len payload
                | Some _ | None -> build_image t ~header_len payload
              in
              (* [Disk.write] copies the sectors it buffers. *)
              Disk.write t.disk ~sector:start (Bytes.unsafe_to_string img.bytes);
              t.object_map <- Bptree.insert t.object_map oid (pack ~start ~sectors);
              Hashtbl.replace t.cache oid img))
    dirty;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.logged;
  (match t.checkpoint_extent with
  | Some (start, sectors) -> to_free := (start, sectors) :: !to_free
  | None -> ());
  t.checkpoint_extent <- None;
  (* The encoded allocator = live allocator + deferred frees + the
     metadata extent itself removed. Allocate the extent first (sized
     against the pre-free encoding plus slack: frees only shrink the
     encoding by coalescing, and the allocation itself perturbs it by
     at most one split). *)
  let future_alloc () =
    let a = Extent_alloc.copy t.alloc in
    List.iter (fun (start, sectors) -> Extent_alloc.free a ~start ~sectors) !to_free;
    a
  in
  let estimate =
    String.length
      (encode_metadata ~object_map:t.object_map ~alloc:(future_alloc ())
         ~quarantined:t.quarantined)
  in
  let sectors = sectors_for t estimate + 1 in
  (match Extent_alloc.alloc t.alloc ~sectors with
  | None -> failwith "Store: disk full (checkpoint)"
  | Some start ->
      let body =
        encode_metadata ~object_map:t.object_map ~alloc:(future_alloc ())
          ~quarantined:t.quarantined
      in
      assert (String.length body <= sectors * t.sector_bytes);
      let image = Bytes.make (sectors * t.sector_bytes) '\000' in
      Bytes.blit_string body 0 image 0 (String.length body);
      Disk.write t.disk ~sector:start (Bytes.unsafe_to_string image);
      t.checkpoint_extent <- Some (start, sectors));
  Disk.flush t.disk;
  t.generation <- Int64.add t.generation 1L;
  (* Only records of the post-truncate epoch may be replayed over this
     snapshot; everything in the current epoch is already applied. *)
  t.wal_epoch <- Int64.add (Wal.epoch t.wal) 1L;
  write_superblock t;
  (* The new snapshot is durable: vacated extents may now be reused. *)
  List.iter (fun (start, sectors) -> Extent_alloc.free t.alloc ~start ~sectors) !to_free;
  Wal.truncate t.wal;
  let t1 = Histar_util.Sim_clock.now_ns clock in
  Metrics.Histogram.observe m_checkpoint_ns (Int64.to_int (Int64.sub t1 t0));
  if Trace.enabled () then
    Trace.emit ~ts_ns:t1 "store.checkpoint"
      [
        ("generation", Int64.to_string t.generation);
        ("dirty_objects", string_of_int dirty_at_entry);
        ("virtual_ns", Int64.to_string (Int64.sub t1 t0));
      ]

(* ---------- sync (fsync path) ---------- *)

let sync_oids t ~oids =
  let append oid =
    let update =
      match Hashtbl.find_opt t.dirty oid with
      | Some u -> Option.map (fun p -> p.payload) u
      | None -> get t ~oid
    in
    let record = wal_record ~oid update in
    (try Wal.append t.wal record
     with Wal.Log_full ->
       t.stats.log_applies <- t.stats.log_applies + 1;
       checkpoint t;
       Wal.append t.wal record);
    Hashtbl.replace t.logged oid ();
    t.stats.wal_records <- t.stats.wal_records + 1
  in
  List.iter append oids;
  Wal.commit t.wal;
  t.stats.wal_commits <- t.stats.wal_commits + 1;
  Metrics.Counter.incr m_sync_batches;
  Metrics.Counter.add m_synced_oids (List.length oids);
  if Wal.committed_records t.wal >= t.apply_threshold then begin
    t.stats.log_applies <- t.stats.log_applies + 1;
    checkpoint t
  end

let sync_oid t ~oid = sync_oids t ~oids:[ oid ]

(* In-place page flush (§7.1). The object's payload is [header]
   followed by [body]; only [header] and body bytes [off, off+len) are
   patched into the cached home image, re-hashed and written, with the
   sectors around them: that range and its sector slack become durable,
   nothing else. The cached image keeps describing exactly the platter
   bytes, so its root always checks. Falls back to the log when there
   is no cached home image, when the payload or header length changed,
   or when the WAL holds a record of the object that recovery would
   replay over the home copy. *)
let sync_range t ~oid ~header ~body ~body_len ~off ~len =
  let header_len = String.length header in
  let size = header_len + body_len in
  let home =
    match (Hashtbl.find_opt t.dirty oid, Bptree.find t.object_map oid, Hashtbl.find_opt t.cache oid) with
    | Some None, _, _ | _, None, _ | _, _, None -> None
    | _, Some packed, Some img ->
        if Hashtbl.mem t.logged oid || img.len <> size || img.header_len <> Some header_len
        then None
        else Some (unpack packed, img)
  in
  match home with
  | None ->
      let payload = Bytes.create size in
      Bytes.blit_string header 0 payload 0 header_len;
      Bytes.blit body 0 payload header_len body_len;
      put t ~oid ~header_len (Bytes.unsafe_to_string payload);
      sync_oid t ~oid;
      false
  | Some ((start, sectors), img) ->
      let img = own t oid img in
      let b = img.bytes and sb = t.sector_bytes in
      let off = max 0 off and len = max 0 len in
      (* Chunk spans to re-hash: the header's, if it changed, and the
         body range's. *)
      let touched = ref [] in
      let patch ~pos ~n blit =
        if n > 0 then begin
          blit (image_header + pos);
          touched := (pos / chunk_bytes, (pos + n - 1) / chunk_bytes) :: !touched
        end
      in
      if not (String.equal header (Bytes.sub_string b image_header header_len)) then
        patch ~pos:0 ~n:header_len (fun dst -> Bytes.blit_string header 0 b dst header_len);
      let lo = min off body_len in
      let hi = min (off + len) body_len in
      patch ~pos:(header_len + lo) ~n:(hi - lo) (fun dst -> Bytes.blit body lo b dst (hi - lo));
      let work = ref 0 in
      List.iter
        (fun (c0, c1) -> rehash work b ~len:img.len ~sums:img.sums ~runs:img.runs c0 c1)
        !touched;
      Bytes.set_int64_le b 8 (root work img.runs);
      count_checksummed work;
      Metrics.Histogram.observe m_range_flush_checksummed !work;
      (* The header sectors (length, root, object header), then the
         sectors covering the range, one barrier. *)
      let sector_of pos = min (sectors - 1) (pos / sb) in
      let head_last = sector_of (image_header + header_len - 1) in
      let first = sector_of (image_header + header_len + off) in
      let last = sector_of (image_header + header_len + off + max 0 (len - 1)) in
      Disk.write t.disk ~sector:start (Bytes.sub_string b 0 ((head_last + 1) * sb));
      Disk.write t.disk ~sector:(start + first)
        (Bytes.sub_string b (first * sb) ((last - first + 1) * sb));
      Disk.flush t.disk;
      true

(* ---------- recovery ---------- *)

let recover ~disk =
  let geometry = Disk.geometry disk in
  let sector_bytes = geometry.Disk.sector_bytes in
  let sb = Disk.read_retrying disk ~sector:0 ~count:1 in
  let d = Codec.Dec.of_string sb in
  let m = Codec.Dec.i64 d in
  if not (Int64.equal m store_magic) then
    invalid_arg "Store.recover: no store on this disk";
  let generation = Codec.Dec.i64 d in
  let wal_epoch = Codec.Dec.i64 d in
  let apply_threshold = Codec.Dec.u32 d in
  let wal_sectors = Codec.Dec.u32 d in
  let has_ckpt = Codec.Dec.bool d in
  let ckpt_start = Codec.Dec.u32 d in
  let ckpt_sectors = Codec.Dec.u32 d in
  let object_map, alloc, checkpoint_extent, quarantined =
    if has_ckpt then begin
      let image = Disk.read_retrying disk ~sector:ckpt_start ~count:ckpt_sectors in
      let d = Codec.Dec.of_string image in
      let sum = Codec.Dec.i64 d in
      let body = Codec.Dec.str d in
      if not (Int64.equal (metadata_checksum body) sum) then
        failwith "Store.recover: checkpoint checksum mismatch";
      let d = Codec.Dec.of_string body in
      let object_map = Bptree.decode d in
      let alloc = Extent_alloc.decode d in
      let nq = Codec.Dec.u32 d in
      let quarantined =
        List.init nq (fun _ ->
            let start = Codec.Dec.u32 d in
            let sectors = Codec.Dec.u32 d in
            (start, sectors))
      in
      (object_map, alloc, Some (ckpt_start, ckpt_sectors), quarantined)
    end
    else begin
      let alloc = Extent_alloc.create () in
      let data_start = wal_start + wal_sectors in
      Extent_alloc.add_region alloc ~start:data_start
        ~sectors:(geometry.Disk.sectors - data_start);
      (Bptree.create (), alloc, None, [])
    end
  in
  let wal, records = Wal.recover ~disk ~start:wal_start ~sectors:wal_sectors in
  (* Crash between a checkpoint's superblock write and its log
     truncate: the log still holds the pre-checkpoint epoch, whose
     records are already folded into the snapshot. Replaying them would
     regress objects, so discard them and finish the truncate. *)
  let records =
    if Int64.equal (Wal.epoch wal) wal_epoch then records
    else begin
      Wal.truncate wal;
      if not (Int64.equal (Wal.epoch wal) wal_epoch) then
        failwith "Store.recover: WAL epoch diverged from superblock";
      []
    end
  in
  let t =
    {
      disk;
      wal;
      wal_sectors;
      apply_threshold;
      sector_bytes;
      object_map;
      alloc;
      dirty = Hashtbl.create 256;
      cache = Hashtbl.create 256;
      logged = Hashtbl.create 64;
      owner = ref ();
      stats = fresh_stats ();
      generation;
      checkpoint_extent;
      quarantined;
      wal_epoch;
    }
  in
  List.iter
    (fun payload ->
      let oid, update = parse_wal_record payload in
      Hashtbl.replace t.logged oid ();
      match update with
      | Some data -> put t ~oid data
      | None -> delete t ~oid)
    records;
  (* Recovery accounting: how often nodes come back from their own
     store, how many WAL records the committed prefix replayed, and
     how many live objects the recovered map holds — the numbers a
     shard-death drill reads to prove recovery actually happened. *)
  Metrics.Counter.incr m_recoveries;
  Metrics.Counter.add m_replayed_records (List.length records);
  Metrics.Counter.add m_recovered_objects (Bptree.cardinal t.object_map);
  t

(* ---------- scrub (media-fault repair) ---------- *)

type scrub_report = {
  passes : int;
  scanned : int;
  repaired : int;
  quarantined_sectors : int;
  lost : int64 list;
  clean : bool;
}

let quarantine t ~start ~sectors =
  t.quarantined <-
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      ((start, sectors) :: t.quarantined);
  Metrics.Counter.add m_quarantined sectors

let readable t ~sector ~count =
  match Disk.read_retrying t.disk ~sector ~count with
  | image -> Some image
  | exception Disk.Read_error _ -> None

(* Repair loop. Each verify pass walks every durable structure —
   store and WAL superblocks, the checkpoint metadata extent, and the
   home image of every clean mapped object — reading with retry and
   verifying checksums. Superblocks heal by rewrite (which clears a
   latent mark, like a drive remap). An object image that stays
   unreadable or fails its checksum loses its extent to the quarantine
   list; its payload is recovered from the clean cache when present
   (every checkpoint leaves one there) and re-marked dirty, so the
   forced checkpoint at the end of the pass re-homes it to fresh
   sectors. Because those repair writes can themselves strike new
   latent sectors, the loop re-verifies until a pass finds nothing
   (bounded by [max_passes]); for a fixed fault seed the whole loop is
   deterministic. *)
let scrub ?(max_passes = 10) t =
  Metrics.Counter.incr m_scrubs;
  let scanned = ref 0
  and repaired = ref 0
  and quarantined_n = ref 0
  and lost = ref [] in
  let verify_and_repair () =
    let faults = ref 0 in
    (match readable t ~sector:0 ~count:1 with
    | Some _ -> ()
    | None ->
        incr faults;
        write_superblock t);
    (match readable t ~sector:wal_start ~count:1 with
    | Some _ -> ()
    | None ->
        incr faults;
        Wal.rewrite_superblock t.wal);
    (* The in-memory object map and allocator are authoritative; a bad
       metadata extent is simply superseded by the forced checkpoint. *)
    (match t.checkpoint_extent with
    | None -> ()
    | Some (start, sectors) ->
        let ok =
          match readable t ~sector:start ~count:sectors with
          | None -> false
          | Some image -> (
              try
                let d = Codec.Dec.of_string image in
                let sum = Codec.Dec.i64 d in
                let body = Codec.Dec.str d in
                Int64.equal (metadata_checksum body) sum
              with _ -> false)
        in
        if not ok then incr faults);
    let mapped = ref [] in
    Bptree.iter (fun oid packed -> mapped := (oid, packed) :: !mapped) t.object_map;
    List.iter
      (fun (oid, packed) ->
        if not (Hashtbl.mem t.dirty oid) then begin
          incr scanned;
          let start, sectors = unpack packed in
          let intact =
            match readable t ~sector:start ~count:sectors with
            | None -> false
            | Some image -> (
                try
                  check_object_image image;
                  true
                with _ -> false)
          in
          if not intact then begin
            incr faults;
            (match Bptree.remove t.object_map oid with
            | Some m -> t.object_map <- m
            | None -> assert false);
            quarantine t ~start ~sectors;
            quarantined_n := !quarantined_n + sectors;
            match Hashtbl.find_opt t.cache oid with
            | Some img ->
                Hashtbl.replace t.dirty oid
                  (Some { payload = payload_of img; header_len = img.header_len });
                Hashtbl.remove t.cache oid;
                incr repaired;
                Metrics.Counter.incr m_repaired
            | None ->
                lost := oid :: !lost;
                Metrics.Counter.incr m_lost
          end
        end)
      (List.rev !mapped);
    !faults
  in
  let rec loop n =
    let faults = verify_and_repair () in
    if faults = 0 then (n + 1, true)
    else begin
      (* Persist the repairs (and the quarantine list) even when this
         was the last allowed pass. *)
      checkpoint t;
      if n + 1 >= max_passes then (n + 1, false) else loop (n + 1)
    end
  in
  let passes, clean = loop 0 in
  if Trace.enabled () then
    Trace.emit
      ~ts_ns:(Histar_util.Sim_clock.now_ns (Disk.clock t.disk))
      "store.scrub"
      [
        ("passes", string_of_int passes);
        ("repaired", string_of_int !repaired);
        ("quarantined_sectors", string_of_int !quarantined_n);
        ("lost", string_of_int (List.length !lost));
        ("clean", string_of_bool clean);
      ];
  {
    passes;
    scanned = !scanned;
    repaired = !repaired;
    quarantined_sectors = !quarantined_n;
    lost = List.rev !lost;
    clean;
  }

let quarantined_extents t = t.quarantined
let home_extent t ~oid = Option.map unpack (Bptree.find t.object_map oid)

(* ---------- branching ---------- *)

(* O(1) in the number of objects: the object map and both allocator
   trees are persistent (shared roots), the disk fork shares the
   persistent media map, and the WAL handle is a fresh record over the
   forked disk. Only the dirty set, clean cache and volatile disk cache
   are copied. The [quarantined] list and [wal_epoch] live in this
   record, so a fork's quarantines and epoch bumps never reach the
   trunk. *)
let fork t =
  let disk = Disk.fork t.disk in
  let wal = Wal.fork t.wal ~disk in
  (* Both sides now share every cached image: neither owns one until it
     copies it (see [own]). *)
  t.owner <- ref ();
  {
    disk;
    wal;
    wal_sectors = t.wal_sectors;
    apply_threshold = t.apply_threshold;
    sector_bytes = t.sector_bytes;
    object_map = t.object_map;
    alloc = Extent_alloc.copy t.alloc;
    dirty = Hashtbl.copy t.dirty;
    cache = Hashtbl.copy t.cache;
    logged = Hashtbl.copy t.logged;
    owner = ref ();
    stats = fresh_stats ();
    generation = t.generation;
    checkpoint_extent = t.checkpoint_extent;
    quarantined = t.quarantined;
    wal_epoch = t.wal_epoch;
  }

let disk t = t.disk

(* ---------- inspection ---------- *)

let iter_oids t f =
  let seen = Hashtbl.create 64 in
  Hashtbl.iter
    (fun oid update ->
      Hashtbl.replace seen oid ();
      match update with Some _ -> f oid | None -> ())
    t.dirty;
  Bptree.iter (fun oid _ -> if not (Hashtbl.mem seen oid) then f oid) t.object_map

let object_count t =
  let n = ref 0 in
  iter_oids t (fun _ -> incr n);
  !n

let dirty_count t = Hashtbl.length t.dirty
let drop_clean_cache t = Hashtbl.reset t.cache
let stats t = t.stats
let free_sectors t = Extent_alloc.free_sectors t.alloc

let check_invariants t =
  Extent_alloc.check_invariants t.alloc;
  Bptree.check_invariants t.object_map;
  (* No persistent object's extent may be marked free. This is implied
     by allocator correctness; spot-check object map entries are
     readable and checksum-clean. *)
  Bptree.iter
    (fun oid packed ->
      let start, sectors = unpack packed in
      if sectors <= 0 then failwith "Store: empty object extent";
      if not (Hashtbl.mem t.dirty oid) then
        check_object_image (Disk.read_retrying t.disk ~sector:start ~count:sectors))
    t.object_map

(* Whole-disk accounting, for the crash-sweep harness. Beyond
   [check_invariants], prove that the object map, the checkpoint
   metadata extent and the allocator's free extents exactly tile the
   data region: any gap is a leaked extent, any overlap is a double
   allocation. Also re-verify the on-disk checkpoint image checksum and
   the WAL's structural invariants. *)
let fsck t =
  check_invariants t;
  Wal.check_invariants t.wal;
  let geometry = Disk.geometry t.disk in
  let data_start = wal_start + t.wal_sectors in
  let extents = ref [] in
  let add what start sectors = extents := (what, start, sectors) :: !extents in
  Bptree.iter
    (fun oid packed ->
      let start, sectors = unpack packed in
      add (Printf.sprintf "object %Ld" oid) start sectors)
    t.object_map;
  (match t.checkpoint_extent with
  | Some (start, sectors) ->
      add "checkpoint metadata" start sectors;
      (* Checkpoint checksum integrity: the snapshot we would recover
         from must still be readable. *)
      let image = Disk.read_retrying t.disk ~sector:start ~count:sectors in
      let d = Codec.Dec.of_string image in
      let sum = Codec.Dec.i64 d in
      let body = Codec.Dec.str d in
      if not (Int64.equal (metadata_checksum body) sum) then
        failwith "Store.fsck: checkpoint checksum mismatch"
  | None -> ());
  List.iter
    (fun (start, sectors) -> add "free extent" start sectors)
    (Extent_alloc.to_list t.alloc);
  List.iter
    (fun (start, sectors) -> add "quarantined extent" start sectors)
    t.quarantined;
  let extents =
    List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b) !extents
  in
  let pos = ref data_start in
  List.iter
    (fun (what, start, sectors) ->
      if start < !pos then
        failwith
          (Printf.sprintf
             "Store.fsck: %s [%d, %d) overlaps allocation ending at %d" what
             start (start + sectors) !pos);
      if start > !pos then
        failwith
          (Printf.sprintf "Store.fsck: leaked sectors [%d, %d) before %s" !pos
             start what);
      pos := start + sectors)
    extents;
  if !pos <> geometry.Disk.sectors then
    failwith
      (Printf.sprintf "Store.fsck: leaked sectors [%d, %d) at end of disk" !pos
         geometry.Disk.sectors)
