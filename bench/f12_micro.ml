(* Figure 12, upper half: IPC round-trip, fork/exec, spawn — HiStar
   vs the linuxsim/bsdsim comparison kernels, plus the §7.1 syscall
   counts. *)

open Harness
module Unixsim = Histar_baseline.Unixsim
module Profile = Histar_core.Profile

let ipc_rtts = 2_000

(* One ping-pong setup: after a warmup, [rtts] timed round trips of an
   8-byte message. Returns their virtual ns and the syscalls they made. *)
let histar_ipc ~rtts =
  let m = mk_machine () in
  boot m (fun _fs proc ->
      let r1, w1 = Process.pipe proc in
      let r2, w2 = Process.pipe proc in
      let _echo =
        Process.spawn proc ~name:"echo" ~fds:[ r1; w2 ] (fun child ->
            let rec loop () =
              let msg = Process.read child r1 8 in
              if String.length msg > 0 then begin
                ignore (Process.write child w2 msg);
                loop ()
              end
            in
            loop ();
            Process.close child w2)
      in
      (* warm up *)
      ignore (Process.write proc w1 "warmup!!");
      ignore (Process.read proc r2 8);
      let profile = Kernel.profile m.kernel in
      Profile.reset profile;
      let (), ns =
        timed m.clock (fun () ->
            for _ = 1 to rtts do
              ignore (Process.write proc w1 "8bytemsg");
              ignore (Process.read proc r2 8)
            done)
      in
      Process.close proc w1;
      (ns, Profile.total profile))

let baseline_ipc flavor =
  let clock = Clock.create () in
  let u = Unixsim.create flavor ~clock () in
  let (), ns =
    timed clock (fun () ->
        for _ = 1 to ipc_rtts do
          Unixsim.pipe_rtt u
        done)
  in
  Int64.to_float ns /. float_of_int ipc_rtts

let proc_iters = 30

(* fork/exec and spawn: after a warmup, [iters] timed full
   create-run-exit-wait cycles of a /bin/true equivalent. Returns their
   virtual ns and the syscalls they made. *)
let histar_proc ~use_spawn ~iters =
  let m = mk_machine () in
  boot m (fun fs proc ->
      ignore (Fs.mkdir fs "/bin");
      Fs.write_file fs "/bin/true" "#!true";
      (* the launching shell holds stdin/stdout/stderr, which the child
         inherits; fork must copy their descriptor state, spawn only
         links it *)
      Fs.write_file fs "/dev-console" "";
      let fds =
        List.init 3 (fun _ -> Process.open_file proc "/dev-console")
      in
      let one () =
        let h =
          if use_spawn then
            Process.spawn proc ~name:"true" ~fds (fun c -> Process.exit c 0)
          else
            Process.fork_exec proc ~name:"true" ~text:"/bin/true" ~fds
              (fun c -> Process.exit c 0)
        in
        ignore (Process.wait proc h)
      in
      one () (* warmup *);
      let profile = Kernel.profile m.kernel in
      Profile.reset profile;
      let (), ns =
        timed m.clock (fun () ->
            for _ = 1 to iters do
              one ()
            done)
      in
      (ns, Profile.total profile))

let baseline_forkexec flavor =
  let clock = Clock.create () in
  let u = Unixsim.create flavor ~clock () in
  let iters = proc_iters in
  Unixsim.reset_syscall_count u;
  let (), ns =
    timed clock (fun () ->
        for _ = 1 to iters do
          Unixsim.fork_exec_true u
        done)
  in
  (Int64.to_float ns /. float_of_int iters /. 1e6, Unixsim.syscall_count u / iters)

let run () =
  header "Figure 12 (upper): IPC and process-creation microbenchmarks";
  let ns, sc = histar_ipc ~rtts:ipc_rtts in
  let h_ipc_ns = Int64.to_float ns /. float_of_int ipc_rtts in
  let h_ipc_sc = float_of_int sc /. float_of_int ipc_rtts in
  let l_ipc = baseline_ipc Unixsim.Linux in
  let b_ipc = baseline_ipc Unixsim.Openbsd in
  row4 "Benchmark" "HiStar" "Linux" "OpenBSD";
  row4 "IPC benchmark, per RTT"
    (fmt_time_us (h_ipc_ns /. 1e3))
    (fmt_time_us (l_ipc /. 1e3))
    (fmt_time_us (b_ipc /. 1e3));
  paper "3.11 µs / 4.32 µs / 2.13 µs";
  Printf.printf "%-38s %12s\n" "  syscalls per RTT (HiStar)"
    (Printf.sprintf "%.0f" h_ipc_sc);
  let per_iter (ns, sc) =
    (Int64.to_float ns /. float_of_int proc_iters /. 1e6, sc / proc_iters)
  in
  let fe_ms, fe_sc = per_iter (histar_proc ~use_spawn:false ~iters:proc_iters) in
  let sp_ms, sp_sc = per_iter (histar_proc ~use_spawn:true ~iters:proc_iters) in
  let l_fe_ms, l_fe_sc = baseline_forkexec Unixsim.Linux in
  let b_fe_ms, b_fe_sc = baseline_forkexec Unixsim.Openbsd in
  row4 "Fork/exec, per iteration" (fmt_time_ms fe_ms) (fmt_time_ms l_fe_ms)
    (fmt_time_ms b_fe_ms);
  paper "1.35 ms / 0.18 ms / 0.18 ms";
  row4 "Spawn, per iteration" (fmt_time_ms sp_ms) na na;
  paper "0.47 ms / — / —";
  header "Table (§7.1): system calls per /bin/true cycle";
  row4 "Path" "HiStar" "Linux" "OpenBSD";
  row4 "fork + exec + exit + wait"
    (string_of_int fe_sc) (string_of_int l_fe_sc) (string_of_int b_fe_sc);
  paper "317 / 9 / 9";
  row4 "spawn + exit + wait" (string_of_int sp_sc) na na;
  paper "127 / — / —";
  Printf.printf
    "\nShape check: spawn uses %.1fx fewer syscalls and is %.1fx faster than\n\
     fork/exec (paper: 2.5x fewer, 2.9x faster).\n"
    (float_of_int fe_sc /. float_of_int sp_sc)
    (fe_ms /. sp_ms)
