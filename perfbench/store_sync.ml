(* store-sync: one closed-loop client process on one machine, a 1 MB
   and an 8 MB file, and a seeded mix of 8 KB random reads, 8 KB
   in-place writes each followed by [Fs.fsync_range] (both at random
   8 KB-aligned offsets, the Sprite LFS large-file pattern the paper's
   section 7 reuses), 1 KB small-file
   creates each followed by [Fs.fsync] (and the removal of the oldest
   small file), and an occasional [Sys.sync_all] checkpoint.

   The time goes to unixlib -> core encode -> store/wal/btree -> disk;
   net is never touched. Reads run beside writes and two object sizes
   are used, so a change that makes range writes cost O(range) rather
   than O(object) shows, and so does any cost it moves onto reads. *)

open Common
module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Types = Histar_core.Types
module Clock = Histar_util.Sim_clock
module Disk = Histar_disk.Disk
module Store = Histar_store.Store
module Fs = Histar_unix.Fs
module Process = Histar_unix.Process
open Histar_label

let files = [| ("/data/f1m", 1 lsl 20); ("/data/f8m", 8 lsl 20) |]
let chunk = 8192
let small = 1024

(* Creates fan out over this many directories so no directory segment
   grows without bound during a run. *)
let dirs = 64
let small_files = 256

type op = Read | Write | Create | Checkpoint

(* Per 100 operations. The median falls inside the writes, whose
   virtual cost varies with seek distance, and the 99th percentile
   inside the checkpoints. *)
let mix = [ (Read, 25); (Write, 63); (Create, 10); (Checkpoint, 2) ]
let warmup = 20

(* Seeded payloads: a tag naming the operation, then printable filler.
   Every payload is distinct. *)
let payload rng ~seed ~kind ~idx len =
  let tag = Printf.sprintf "<%s:%Lx:%07d>" kind seed idx in
  tag ^ text rng (len - String.length tag)

let needle s = String.sub s 0 (min 32 (String.length s))

(* The recovered machine must hold every fsynced byte: both large files
   as the shadow copy has them, and every small file created. *)
let check_recovered ~disk ~shadow ~smalls =
  let durable = ref false in
  let fsck_ok =
    match Store.recover ~disk:(Disk.restore (Disk.snapshot disk) ~clock:(Clock.create ())) with
    | exception _ -> false
    | store' -> (
        let fsck_ok = match Store.fsck store' with () -> true | exception _ -> false in
        match Kernel.recover ~store:store' with
        | exception e ->
            Printf.printf "Kernel.recover failed: %s\n" (Printexc.to_string e);
            fsck_ok
        | k ->
            let _tid =
              Kernel.spawn k ~name:"verify" (fun () ->
                  let root =
                    List.find_map
                      (fun (oid, kind) ->
                        if kind = Types.Container then
                          match Sys.obj_descrip (Types.self_entry oid) with
                          | "/" -> Some oid
                          | _ -> None
                          | exception _ -> None
                        else None)
                      (Option.value ~default:[] (Kernel.container_children k (Kernel.root k)))
                  in
                  match root with
                  | None -> ()
                  | Some root ->
                      let fs = Fs.make ~root in
                      let same path want =
                        match Fs.read_file fs path with
                        | v -> String.equal v want
                        | exception _ -> false
                      in
                      durable :=
                        Array.for_all2
                          (fun (path, _) b -> same path (Bytes.unsafe_to_string b))
                          files shadow
                        && Hashtbl.fold (fun path v ok -> ok && same path v) smalls true)
            in
            Kernel.run k;
            fsck_ok)
  in
  [ ("recover_fsck", fsck_ok); ("recover_durable", !durable) ]

let run cfg =
  let rng = Rng.create cfg.seed in
  let next_op = deck (Rng.split rng) mix in
  let r = recorder () in
  let w0 = wall () in
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let store = Store.format ~disk ~wal_sectors:262_144 () in
  let kernel = Kernel.create ~seed:cfg.seed ~clock ~store ~syscall_cost_ns:120 () in
  let shadow = Array.map (fun (_, size) -> Bytes.create size) files in
  let smalls = Hashtbl.create 1024 in
  (* Small files, oldest first: each create removes the oldest, so the
     store holds [small_files] of them and checkpoints cost the same at
     the end of a run as at its start. *)
  let live = Queue.create () in
  let setup_s = ref 0.0 and t_end = ref 0.0 and virt_ns = ref 0L in
  let user_bytes = ref 0 and needles = ref [] in
  let window = ref None in
  let _tid =
    Kernel.spawn kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root kernel) ~label:(Label.make Level.L1) in
        let proc = Process.boot ~fs ~container:(Kernel.root kernel) ~name:"client" () in
        ignore (Fs.mkdir fs "/data");
        ignore (Fs.mkdir fs "/small");
        for d = 0 to dirs - 1 do
          ignore (Fs.mkdir fs (Printf.sprintf "/small/d%02d" d))
        done;
        let fds =
          Array.mapi
            (fun i (path, size) ->
              ignore (Fs.create fs path);
              Fs.reserve fs path (size + 65536);
              let fd = Process.open_file proc path in
              for c = 0 to (size / chunk) - 1 do
                let data = payload rng ~seed:cfg.seed ~kind:"pre" ~idx:((i * 10_000) + c) chunk in
                Bytes.blit_string data 0 shadow.(i) (c * chunk) chunk;
                if c = 0 then needles := needle data :: !needles;
                ignore (Process.write proc fd data)
              done;
              Fs.fsync fs path;
              fd)
            files
        in
        for k = 0 to small_files - 1 do
          let p = Printf.sprintf "/small/d%02d/p%07d" (k mod dirs) k in
          let data = payload rng ~seed:cfg.seed ~kind:"pre" ~idx:(20_000 + k) small in
          Fs.write_file fs p data;
          Hashtbl.replace smalls p data;
          Queue.push p live
        done;
        Sys.sync_all ();
        setup_s := wall () -. w0;
        if not cfg.setup_only then begin
          (* One operation under its own root span; a raising operation
             counts as failed and the loop goes on. *)
          let attempt idx =
            let op = next_op () in
            let f = Rng.int rng (Array.length files) in
            let path, size = files.(f) in
            (* Unaligned ranges are left out: after an [Fs.fsync_range]
               whose bytes cross a sector boundary past the request,
               [Kernel.recover] fails with "object checksum mismatch"
               (README.md, known defects). *)
            let off = chunk * Rng.int rng (size / chunk) in
            let data =
              match op with
              | Write -> payload rng ~seed:cfg.seed ~kind:"w" ~idx chunk
              | Create -> payload rng ~seed:cfg.seed ~kind:"c" ~idx small
              | Read | Checkpoint -> ""
            in
            let body () =
              match op with
              | Read ->
                  let got =
                    Span.with_span ~op:idx "unix.read" (fun () ->
                        Process.seek proc fds.(f) off;
                        Process.read proc fds.(f) chunk)
                  in
                  (String.equal got (Bytes.sub_string shadow.(f) off chunk), "read mismatch")
              | Write ->
                  let n =
                    Span.with_span ~op:idx "unix.write" (fun () ->
                        Process.seek proc fds.(f) off;
                        Process.write proc fds.(f) data)
                  in
                  Span.with_span ~op:idx "unix.fsync_range" (fun () ->
                      Fs.fsync_range fs path ~off ~len:chunk);
                  Bytes.blit_string data 0 shadow.(f) off chunk;
                  user_bytes := !user_bytes + chunk;
                  needles := needle data :: !needles;
                  (n = chunk, "short write")
              | Create ->
                  let p =
                    Printf.sprintf "/small/d%02d/%c%07d" (abs idx mod dirs)
                      (if idx < 0 then 'w' else 'f') (abs idx)
                  in
                  Span.with_span ~op:idx "unix.create_fsync" (fun () ->
                      Span.with_span ~op:idx "unix.create" (fun () -> Fs.write_file fs p data);
                      Span.with_span ~op:idx "unix.fsync" (fun () -> Fs.fsync fs p));
                  Hashtbl.replace smalls p data;
                  Queue.push p live;
                  let oldest = Queue.pop live in
                  Span.with_span ~op:idx "unix.unlink" (fun () -> Fs.unlink fs oldest);
                  Hashtbl.remove smalls oldest;
                  user_bytes := !user_bytes + small;
                  needles := needle data :: !needles;
                  (true, "")
              | Checkpoint ->
                  Span.with_span ~op:idx "kernel.sync_all" Sys.sync_all;
                  (true, "")
            in
            let name =
              match op with
              | Read -> "op.read"
              | Write -> "op.write"
              | Create -> "op.create"
              | Checkpoint -> "op.checkpoint"
            in
            let v0 = Sys.clock_ns () in
            let ok, what =
              match Span.with_span ~op:idx name body with
              | res -> res
              | exception e -> (false, Printexc.to_string e)
            in
            (ok, what, Int64.sub (Sys.clock_ns ()) v0)
          in
          for i = 1 to warmup do
            ignore (attempt (-i))
          done;
          let close = open_window () in
          Span.reset ~clock:(fun () -> Clock.now_ns clock);
          begin_phase r ~virt:(Sys.clock_ns ());
          user_bytes := 0;
          let started = ref 0 in
          while keep_going cfg r ~started:!started do
            let idx = !started in
            incr started;
            let ok, what, v = attempt idx in
            record r ~virt_ns:v ~ok ~what
          done;
          t_end := wall ();
          virt_ns := Int64.sub (Sys.clock_ns ()) r.v0;
          window := Some (close ())
        end)
  in
  Kernel.run kernel;
  if !setup_s = 0.0 then failwith "store-sync: client did not finish set-up";
  let checks =
    if cfg.setup_only then []
    else
      ("fsck", match Store.fsck store with () -> true | exception _ -> false)
      :: check_recovered ~disk ~shadow ~smalls
  in
  let spans = Span.all () in
  ( {
      rec_ = r;
      t_end = !t_end;
      virt_ns = !virt_ns;
      setup_s = !setup_s;
      checks;
      layers =
        span_layers spans
          [ "unix.read"; "unix.fsync_range"; "unix.create_fsync"; "kernel.sync_all" ];
      user_bytes = !user_bytes;
      window = Option.value !window ~default:(no_window ());
      needles = !needles;
    },
    spans )
