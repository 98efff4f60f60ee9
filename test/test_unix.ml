module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Store = Histar_store.Store
module Disk = Histar_disk.Disk
module Clock = Histar_util.Sim_clock
module Metrics = Histar_metrics.Metrics
open Histar_core.Types
open Histar_unix
open Histar_label

let l1 = Label.make Level.L1

(* Run [f] in a fresh kernel with a formatted FS and a boot process. *)
let in_unix f =
  let k = Kernel.create () in
  let result = ref None in
  let failure = ref None in
  let _tid =
    Kernel.spawn k ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root k) ~label:l1 in
        let proc = Process.boot ~fs ~container:(Kernel.root k) ~name:"init" () in
        match f k proc with
        | v -> result := Some v
        | exception e -> failure := Some (Printexc.to_string e))
  in
  Kernel.run k;
  match (!result, !failure) with
  | Some v, _ -> v
  | None, Some msg -> Alcotest.fail ("init crashed: " ^ msg)
  | None, None -> Alcotest.fail "init did not complete"

let join pred =
  let tries = ref 0 in
  while (not (pred ())) && !tries < 50_000 do
    incr tries;
    Sys.yield ()
  done;
  if not (pred ()) then Alcotest.fail "join: condition never became true"

(* ---------- path handling ---------- *)

let test_split_path () =
  Alcotest.(check (list string)) "plain" [ "a"; "b" ] (Fs.split_path "/a/b");
  Alcotest.(check (list string)) "dots and slashes" [ "a"; "b" ]
    (Fs.split_path "//a/./b/");
  Alcotest.(check (list string)) "root" [] (Fs.split_path "/")

(* ---------- files and directories ---------- *)

let test_mkdir_create_read () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/tmp");
      Fs.write_file fs "/tmp/hello.txt" "hello world";
      Alcotest.(check string) "read back" "hello world"
        (Fs.read_file fs "/tmp/hello.txt");
      Alcotest.(check bool) "exists" true (Fs.exists fs "/tmp/hello.txt");
      Alcotest.(check bool) "is_dir" true (Fs.is_dir fs "/tmp");
      Alcotest.(check int) "size" 11 (Fs.file_size fs "/tmp/hello.txt"))

let test_nested_dirs () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/a");
      ignore (Fs.mkdir fs "/a/b");
      ignore (Fs.mkdir fs "/a/b/c");
      Fs.write_file fs "/a/b/c/deep.txt" "deep";
      Alcotest.(check string) "nested read" "deep"
        (Fs.read_file fs "/a/b/c/deep.txt");
      let names =
        List.map (fun e -> e.Dirseg.name) (Fs.readdir fs "/a/b")
      in
      Alcotest.(check (list string)) "listing" [ "c" ] names)

let test_readdir_and_unlink () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/d");
      List.iter (fun n -> Fs.write_file fs ("/d/" ^ n) n) [ "x"; "y"; "z" ];
      Alcotest.(check int) "three entries" 3 (List.length (Fs.readdir fs "/d"));
      Fs.unlink fs "/d/y";
      let names = List.map (fun e -> e.Dirseg.name) (Fs.readdir fs "/d") in
      Alcotest.(check (list string)) "after unlink" [ "x"; "z" ] names;
      Alcotest.(check bool) "gone" false (Fs.exists fs "/d/y"))

let test_unlink_frees_objects () =
  in_unix (fun k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/dying");
      Fs.write_file fs "/dying/f" "data";
      let before = Kernel.object_count k in
      Fs.unlink fs "/dying";
      (* directory container + dirseg + file all freed *)
      Alcotest.(check int) "objects freed" (before - 3) (Kernel.object_count k))

let test_rename_same_dir () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/r");
      Fs.write_file fs "/r/old" "contents";
      Fs.rename fs ~src:"/r/old" ~dst:"/r/new";
      Alcotest.(check bool) "old gone" false (Fs.exists fs "/r/old");
      Alcotest.(check string) "new has data" "contents"
        (Fs.read_file fs "/r/new"))

let test_rename_cross_dir () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/src");
      ignore (Fs.mkdir fs "/dst");
      Fs.write_file fs "/src/f" "moved";
      Fs.rename fs ~src:"/src/f" ~dst:"/dst/g";
      Alcotest.(check string) "moved" "moved" (Fs.read_file fs "/dst/g");
      Alcotest.(check bool) "source gone" false (Fs.exists fs "/src/f"))

let test_hard_link () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/l1");
      ignore (Fs.mkdir fs "/l2");
      Fs.write_file fs "/l1/f" "shared";
      Fs.link fs ~src:"/l1/f" ~dst:"/l2/f2";
      Alcotest.(check string) "via link" "shared" (Fs.read_file fs "/l2/f2");
      Fs.unlink fs "/l1/f";
      Alcotest.(check string) "still alive through second link" "shared"
        (Fs.read_file fs "/l2/f2"))

let test_big_file_quota_autogrow () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/big");
      (* far larger than the default file and directory quotas *)
      let data = String.make 20_000_000 'q' in
      Fs.write_file fs "/big/file" data;
      Alcotest.(check int) "20MB written" 20_000_000
        (Fs.file_size fs "/big/file"))

let test_mounts () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/mnt");
      ignore (Fs.mkdir fs "/other");
      Fs.write_file fs "/other/inside" "via mount";
      (match Fs.lookup fs "/other" with
      | Some n -> Fs.mount fs ~path:"/mnt/disk" n.Fs.oid
      | None -> Alcotest.fail "no /other");
      Alcotest.(check string) "read through mount" "via mount"
        (Fs.read_file fs "/mnt/disk/inside");
      Fs.unmount fs ~path:"/mnt/disk";
      Alcotest.(check bool) "unmounted" false (Fs.exists fs "/mnt/disk/inside"))

let test_private_files_kernel_enforced () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      let user = Users.create_user ~fs ~name:"bob" in
      Fs.write_file fs "/home/bob/secret" "bob's diary";
      (* bob (this thread owns ur/uw after create_user) can read *)
      Alcotest.(check string) "owner reads" "bob's diary"
        (Fs.read_file fs "/home/bob/secret");
      (* an unprivileged process cannot *)
      let denied = ref false in
      let child =
        Process.spawn proc ~name:"snoop" ~user:(Users.create_user ~fs ~name:"eve")
          (fun snoop ->
            let sfs = Process.fs snoop in
            match Fs.read_file sfs "/home/bob/secret" with
            | _ -> ()
            | exception Kernel_error (Label_check _) -> denied := true)
      in
      ignore (Process.wait proc child);
      Alcotest.(check bool) "kernel denied eve" true !denied;
      ignore user)

(* ---------- fd layer ---------- *)

let test_fd_read_write_seek () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/f");
      let fd = Process.create_file proc "/f/data" in
      ignore (Process.write proc fd "abcdefgh");
      Process.seek proc fd 2;
      Alcotest.(check string) "seek+read" "cdef" (Process.read proc fd 4);
      Alcotest.(check int) "pos" 6 (Process.fd_pos proc fd);
      Alcotest.(check string) "rest" "gh" (Process.read proc fd 100);
      Alcotest.(check string) "eof" "" (Process.read proc fd 10);
      Process.close proc fd;
      Alcotest.(check int) "fd table empty" 0 (Process.fd_count proc))

let test_fd_append () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      Fs.write_file fs "/log" "a";
      let fd = Process.open_file proc ~append:true "/log" in
      ignore (Process.write proc fd "b");
      ignore (Process.write proc fd "c");
      Process.close proc fd;
      Alcotest.(check string) "appended" "abc" (Fs.read_file fs "/log"))

(* ---------- pipes ---------- *)

let test_pipe_basic () =
  in_unix (fun _k proc ->
      let rfd, wfd = Process.pipe proc in
      ignore (Process.write proc wfd "through the pipe");
      Alcotest.(check string) "read" "through the pipe"
        (Process.read proc rfd 100);
      Process.close proc wfd;
      Alcotest.(check string) "eof after close" "" (Process.read proc rfd 10))

let test_pipe_between_processes () =
  in_unix (fun _k proc ->
      let rfd, wfd = Process.pipe proc in
      let child =
        Process.spawn proc ~name:"producer" ~fds:[ wfd ] (fun child ->
            ignore (Process.write child wfd "from child");
            Process.close child wfd)
      in
      let got = Process.read proc rfd 100 in
      ignore (Process.wait proc child);
      Alcotest.(check string) "ipc" "from child" got)

let test_pipe_ping_pong () =
  (* the structure of the paper's IPC benchmark: two processes, two
     uni-directional pipes, 8-byte messages echoed back *)
  in_unix (fun _k proc ->
      let r1, w1 = Process.pipe proc in
      let r2, w2 = Process.pipe proc in
      let echo =
        Process.spawn proc ~name:"echo" ~fds:[ r1; w2 ] (fun child ->
            let rec loop () =
              let m = Process.read child r1 8 in
              if String.length m > 0 then begin
                ignore (Process.write child w2 m);
                loop ()
              end
            in
            loop ();
            Process.close child w2)
      in
      for i = 1 to 10 do
        let msg = Printf.sprintf "msg%05d" i in
        ignore (Process.write proc w1 msg);
        Alcotest.(check string) "round trip" msg (Process.read proc r2 8)
      done;
      Process.close proc w1;
      ignore (Process.wait proc echo))

(* ---------- processes ---------- *)

let test_spawn_wait_status () =
  in_unix (fun _k proc ->
      let child =
        Process.spawn proc ~name:"worker" (fun child -> Process.exit child 42)
      in
      Alcotest.(check int) "exit status" 42 (Process.wait proc child))

let test_spawn_implicit_exit () =
  in_unix (fun _k proc ->
      let child = Process.spawn proc ~name:"quiet" (fun _ -> ()) in
      Alcotest.(check int) "implicit 0" 0 (Process.wait proc child))

let test_wait_reaps () =
  in_unix (fun k proc ->
      let before = Kernel.object_count k in
      let child = Process.spawn proc ~name:"ephemeral" (fun _ -> ()) in
      ignore (Process.wait proc child);
      (* everything the child created inside its containers is gone *)
      Alcotest.(check bool) "no leak beyond a few category-free objects" true
        (Kernel.object_count k <= before + 2))

let test_fork_exec () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/bin");
      Fs.write_file fs "/bin/true" "#!histar/true";
      let ran = ref false in
      let child =
        Process.fork_exec proc ~name:"true" ~text:"/bin/true" (fun child ->
            ran := true;
            Process.exit child 0)
      in
      Alcotest.(check int) "status" 0 (Process.wait proc child);
      Alcotest.(check bool) "program ran" true !ran)

let test_fork_exec_costlier_than_spawn () =
  in_unix (fun k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/bin");
      Fs.write_file fs "/bin/true" "#!histar/true";
      let profile = Kernel.profile k in
      Histar_core.Profile.reset profile;
      let c1 = Process.fork_exec proc ~name:"t1" ~text:"/bin/true" (fun c -> Process.exit c 0) in
      ignore (Process.wait proc c1);
      let fork_exec_count = Histar_core.Profile.total profile in
      Histar_core.Profile.reset profile;
      let c2 = Process.spawn proc ~name:"t2" (fun c -> Process.exit c 0) in
      ignore (Process.wait proc c2);
      let spawn_count = Histar_core.Profile.total profile in
      Alcotest.(check bool)
        (Printf.sprintf "fork/exec (%d) uses well over the syscalls of spawn (%d)"
           fork_exec_count spawn_count)
        true
        (fork_exec_count > spawn_count * 3 / 2))

let test_signal_handler () =
  in_unix (fun _k proc ->
      let got = ref (-1) in
      let child =
        Process.spawn proc ~name:"victim" (fun child ->
            Process.on_signal child 15 (fun s -> got := s);
            (* wait until signal observed *)
            join (fun () -> !got >= 0);
            Process.exit child 7)
      in
      (* give the child a moment to install its handler *)
      Sys.yield ();
      Sys.yield ();
      Process.kill proc child 15;
      Alcotest.(check int) "exit after signal" 7 (Process.wait proc child);
      Alcotest.(check int) "handler saw signal" 15 !got)

let test_sigkill () =
  in_unix (fun k proc ->
      let child =
        Process.spawn proc ~name:"undead" (fun _child ->
            (* loop forever *)
            let rec spin () =
              Sys.yield ();
              spin ()
            in
            spin ())
      in
      Sys.yield ();
      Process.kill proc child 9;
      (* process container should be destroyed *)
      join (fun () ->
          Kernel.obj_kind k (Process.handle_container child) = None);
      Alcotest.(check bool) "process destroyed" true
        (Kernel.obj_kind k (Process.handle_container child) = None))

let test_tainted_child_cannot_leak_to_fs () =
  (* A scanner-style child tainted in category v cannot write any file
     at the default label (§2.1). *)
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/shared");
      Fs.write_file fs "/shared/drop" "";
      let denied = ref false in
      let v = Sys.cat_create () in
      let child =
        Process.spawn proc ~name:"tainted"
          ~extra_label:[ (v, Level.L3) ]
          ~extra_clearance:[ (v, Level.L3) ]
          (fun child ->
            let cfs = Process.fs child in
            match Fs.write_file cfs "/shared/drop" "secret!" with
            | () -> ()
            | exception Kernel_error (Label_check _) -> denied := true)
      in
      ignore (Process.wait proc child);
      Alcotest.(check bool) "tainted write denied by kernel" true !denied;
      Alcotest.(check string) "file unchanged" "" (Fs.read_file fs "/shared/drop"))

(* ---------- dirseg concurrency ---------- *)

let test_dirseg_concurrent_creates () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/con");
      let finished = ref 0 in
      for t = 1 to 4 do
        let _h =
          Process.spawn proc ~name:(Printf.sprintf "writer%d" t) (fun child ->
              let cfs = Process.fs child in
              for i = 1 to 10 do
                Fs.write_file cfs (Printf.sprintf "/con/f-%d-%d" t i) "x"
              done;
              incr finished)
        in
        ()
      done;
      join (fun () -> !finished = 4);
      Alcotest.(check int) "all 40 files present" 40
        (List.length (Fs.readdir fs "/con")))

(* ---------- in-place range flush (fsync_range) ---------- *)

(* A machine with a store: [f store fs proc] runs as init, then the
   run's disk and store come back. *)
let on_disk f =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let store = Store.format ~disk ~wal_sectors:40_000 () in
  let k = Kernel.create ~clock ~store () in
  let failure = ref None in
  let _tid =
    Kernel.spawn k ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root k) ~label:l1 in
        let proc = Process.boot ~fs ~container:(Kernel.root k) ~name:"init" () in
        try f store fs proc with e -> failure := Some (Printexc.to_string e))
  in
  Kernel.run k;
  Option.iter (fun m -> Alcotest.fail ("init crashed: " ^ m)) !failure;
  (disk, store)

(* A file of [size] bytes, logged and then checkpointed, so its range
   flushes take the in-place path. *)
let big_file fs path size =
  Fs.write_file fs path (String.init size (fun i -> Char.chr (33 + (i mod 90))));
  Fs.fsync fs path;
  Sys.sync_all ()

(* Boot the platter a power cut would leave and read [path] back. *)
let read_after_crash disk path =
  let store = Store.recover ~disk:(Disk.restore (Disk.snapshot disk) ~clock:(Clock.create ())) in
  Store.fsck store;
  let k = Kernel.recover ~store in
  let got = ref None in
  let _tid =
    Kernel.spawn k ~name:"after-boot" (fun () ->
        let root = Kernel.root k in
        List.iter
          (fun (oid, kind) ->
            if kind = Container && Sys.obj_descrip (self_entry oid) = "/" then
              got := Some (Fs.read_file (Fs.make ~root:oid) path))
          (Option.value ~default:[] (Kernel.container_children k root)))
  in
  Kernel.run k;
  !got

let test_fsync_range_unaligned () =
  (* 8 KB writes at offsets that are not sector-aligned, so each range
     straddles sector boundaries at both ends; the first shares the
     image's header sector. The offsets step through every 23rd byte
     position within a sector, so wherever the encoded object header
     ends, some range's last sector lies past the request's. *)
  let size = 256 * 1024 in
  let shadow = Bytes.create size in
  let disk, store =
    on_disk (fun store fs proc ->
        big_file fs "/f" size;
        Bytes.blit_string (Fs.read_file fs "/f") 0 shadow 0 size;
        let fd = Process.open_file proc "/f" in
        let commits = (Store.stats store).Store.wal_commits in
        List.iteri
          (fun i off ->
            let data = String.make 8192 (Char.chr (Char.code 'a' + (i mod 26))) in
            Process.seek proc fd off;
            ignore (Process.write proc fd data);
            Fs.fsync_range fs "/f" ~off ~len:8192;
            Bytes.blit_string data 0 shadow off 8192)
          (List.init 24 (fun i -> (10_240 * i) + 3 + (23 * i)));
        Alcotest.(check int) "flushed in place, not logged" commits
          (Store.stats store).Store.wal_commits)
  in
  Store.fsck store;
  Alcotest.(check (option string)) "every fsynced byte reads back"
    (Some (Bytes.to_string shadow)) (read_after_crash disk "/f")

(* Work of one 8 KB range flush, as counted by the kernel and store. *)
let range_flush_work size =
  let work = ref (0, 0) in
  ignore
    (on_disk (fun _ fs proc ->
         big_file fs "/f" size;
         let fd = Process.open_file proc "/f" in
         let off = (5 * 8192) + 100 in
         Process.seek proc fd off;
         ignore (Process.write proc fd (String.make 8192 'w'));
         let count () =
           ( Metrics.counter_value "kernel.bytes_encoded",
             Metrics.counter_value "store.bytes_checksummed" )
         in
         Metrics.with_enabled true (fun () ->
             let e0, c0 = count () in
             Fs.fsync_range fs "/f" ~off ~len:8192;
             let e1, c1 = count () in
             work := (e1 - e0, c1 - c0))));
  !work

let test_fsync_range_work_flat () =
  (* An 8 KB flush encodes the segment header and the range, and
     checksums the chunks it touched plus the sum tree above them: the
     same on a 1 MB and an 8 MB file, to within one 4 KB chunk plus a
     header sector. *)
  let enc1, sum1 = range_flush_work (1 lsl 20) in
  let enc8, sum8 = range_flush_work (8 lsl 20) in
  let slack = 4096 + 512 in
  Alcotest.(check bool) (Printf.sprintf "encoded %d vs %d bytes" enc1 enc8) true
    (enc8 >= 8192 && abs (enc1 - enc8) <= slack && enc8 <= 8192 + 512);
  Alcotest.(check bool) (Printf.sprintf "checksummed %d vs %d bytes" sum1 sum8) true
    (sum8 >= 8192 && abs (sum1 - sum8) <= slack && sum8 <= 8192 + (2 * 4096) + slack)

(* Kernel bytes copied per byte appended, writing [size] bytes to a
   file in 8 KB appends. *)
let append_copies size =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.create fs "/f");
      Fs.reserve fs "/f" (size + 65536);
      let data = String.make 8192 'a' in
      let fd = Process.open_file proc "/f" in
      let copied =
        Metrics.with_enabled true (fun () ->
            let c0 = Metrics.counter_value "kernel.bytes_copied" in
            for _ = 1 to size / 8192 do
              ignore (Process.write proc fd data)
            done;
            Metrics.counter_value "kernel.bytes_copied" - c0)
      in
      Process.close proc fd;
      Alcotest.(check int) "file size" size (Fs.file_size fs "/f");
      float_of_int copied /. float_of_int size)

let test_append_copies_linear () =
  (* Deterministic work gate: each append past the end resizes the file
     segment, and a resize within capacity must not copy the segment,
     so the copies per byte written stay constant in the file size. *)
  List.iter
    (fun mb ->
      let per_byte = append_copies (mb lsl 20) in
      Alcotest.(check bool)
        (Printf.sprintf "%d MB: %.3f bytes copied per byte written" mb per_byte)
        true (per_byte <= 3.0))
    [ 1; 4 ]

let () =
  Alcotest.run "histar_unix"
    [
      ("paths", [ Alcotest.test_case "split" `Quick test_split_path ]);
      ( "fs",
        [
          Alcotest.test_case "mkdir/create/read" `Quick test_mkdir_create_read;
          Alcotest.test_case "nested dirs" `Quick test_nested_dirs;
          Alcotest.test_case "readdir/unlink" `Quick test_readdir_and_unlink;
          Alcotest.test_case "unlink frees" `Quick test_unlink_frees_objects;
          Alcotest.test_case "rename same dir" `Quick test_rename_same_dir;
          Alcotest.test_case "rename cross dir" `Quick test_rename_cross_dir;
          Alcotest.test_case "hard link" `Quick test_hard_link;
          Alcotest.test_case "quota autogrow" `Quick
            test_big_file_quota_autogrow;
          Alcotest.test_case "mounts" `Quick test_mounts;
          Alcotest.test_case "private files" `Quick
            test_private_files_kernel_enforced;
        ] );
      ( "fsync_range",
        [
          Alcotest.test_case "unaligned ranges durable" `Quick
            test_fsync_range_unaligned;
          Alcotest.test_case "work flat in object size" `Quick
            test_fsync_range_work_flat;
        ] );
      ( "fds",
        [
          Alcotest.test_case "read/write/seek" `Quick test_fd_read_write_seek;
          Alcotest.test_case "append" `Quick test_fd_append;
          Alcotest.test_case "appends copy linearly" `Quick
            test_append_copies_linear;
        ] );
      ( "pipes",
        [
          Alcotest.test_case "basic" `Quick test_pipe_basic;
          Alcotest.test_case "between processes" `Quick
            test_pipe_between_processes;
          Alcotest.test_case "ping pong" `Quick test_pipe_ping_pong;
        ] );
      ( "processes",
        [
          Alcotest.test_case "spawn/wait" `Quick test_spawn_wait_status;
          Alcotest.test_case "implicit exit" `Quick test_spawn_implicit_exit;
          Alcotest.test_case "wait reaps" `Quick test_wait_reaps;
          Alcotest.test_case "fork/exec" `Quick test_fork_exec;
          Alcotest.test_case "fork/exec cost" `Quick
            test_fork_exec_costlier_than_spawn;
          Alcotest.test_case "signal handler" `Quick test_signal_handler;
          Alcotest.test_case "sigkill" `Quick test_sigkill;
          Alcotest.test_case "tainted child" `Quick
            test_tainted_child_cannot_leak_to_fs;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "dirseg writers" `Quick
            test_dirseg_concurrent_creates;
        ] );
    ]
