(* Figure 13: application-level benchmarks — building the kernel,
   a large wget transfer, and virus-scanning with and without the
   isolation wrapper. *)

open Harness
module Unixsim = Histar_baseline.Unixsim
module Hub = Histar_net.Hub
module Addr = Histar_net.Addr
module Sim_host = Histar_net.Sim_host
module Netd = Histar_net.Netd
module Stack = Histar_net.Stack
open Histar_label

let build_files = ref 12
let paper_build_note = "6.2 s / 4.7 s / 6.0 s"
let wget_mb = ref 10
let paper_wget_mb = 100
let scan_mb = ref 8
let paper_scan_mb = 100

(* the user-CPU cost of compiling one synthetic module — identical on
   every system; differences come from process/fs overheads *)
let compile_cpu_us = 300_000

(* ---------- kernel build ---------- *)

let histar_build () =
  let m = mk_machine () in
  boot m (fun fs proc ->
      Histar_apps.Build_sim.prepare ~fs ~files:!build_files ~loc_per_file:30;
      let (), ns =
        timed m.clock (fun () ->
            for i = 0 to !build_files - 1 do
              ignore i;
              Sys.usleep compile_cpu_us
            done;
            ignore (Histar_apps.Build_sim.run ~proc ~files:!build_files ()))
      in
      s_of_ns ns)

let baseline_build flavor =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let u = Unixsim.create flavor ~disk ~clock () in
  let (), ns =
    timed clock (fun () ->
        for i = 0 to !build_files - 1 do
          Clock.advance_us clock (float_of_int compile_cpu_us);
          Unixsim.fork_exec_true u;
          let src = Printf.sprintf "/src/m%d.c" i in
          let obj = Printf.sprintf "/src/m%d.o" i in
          Unixsim.creat u ~uid:1 ~mode:0o644 src;
          Unixsim.write u ~uid:1 src (String.make 2048 'c');
          ignore (Unixsim.read u ~uid:1 src);
          Unixsim.creat u ~uid:1 ~mode:0o644 obj;
          Unixsim.write u ~uid:1 obj (String.make 1024 'o')
        done;
        (* link *)
        Unixsim.fork_exec_true u;
        Unixsim.creat u ~uid:1 ~mode:0o644 "/src/kernel";
        Unixsim.write u ~uid:1 "/src/kernel" (String.make 4096 'k'))
  in
  s_of_ns ns

(* ---------- wget ---------- *)

(* A tainted wget fetching [bytes] through netd. Returns the virtual ns
   of the transfer and the bytes received; fails if the transfer does
   not complete. *)
let histar_wget ~bytes =
  let m = mk_machine () in
  let hub = Hub.create ~clock:m.clock () in
  let server =
    Sim_host.create ~hub ~clock:m.clock ~ip:"10.0.0.2" ~mac:"www" ()
  in
  Sim_host.serve_file server ~port:80 ~content:(String.make bytes 'w');
  let got = ref 0 in
  let elapsed = ref (-1L) in
  let _tid =
    Kernel.spawn m.kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root m.kernel) ~label:l1 in
        let proc =
          Process.boot ~fs ~container:(Kernel.root m.kernel) ~name:"init" ()
        in
        let i = Sys.cat_create () in
        let netd =
          Netd.start m.kernel ~hub ~container:(Kernel.root m.kernel)
            ~ip:(Addr.ip_of_string "10.0.0.1") ~mac:"km" ~taint:i ()
        in
        let scratch =
          Sys.container_create
            ~container:(Process.container proc)
            ~label:(Label.of_list [ (i, Level.L2) ] Level.L1)
            ~quota:2_097_152L "wget scratch"
        in
        let _wget =
          Process.spawn proc ~name:"wget"
            ~extra_label:[ (i, Level.L2) ]
            ~extra_clearance:[ (i, Level.L2) ]
            (fun _w ->
              let t0 = Clock.now_ns m.clock in
              let sock =
                Netd.Client.connect netd ~return_container:scratch
                  (Addr.v "10.0.0.2" 80)
              in
              Netd.Client.send netd ~return_container:scratch sock "GET /big";
              let rec loop () =
                match Netd.Client.recv netd ~return_container:scratch sock with
                | Some d ->
                    got := !got + String.length d;
                    if !got < bytes then loop ()
                | None -> ()
              in
              loop ();
              elapsed := Int64.sub (Clock.now_ns m.clock) t0)
        in
        ())
  in
  Kernel.run m.kernel;
  if !elapsed < 0L then failwith "wget: transfer did not complete";
  if !got < bytes then
    failwith (Printf.sprintf "wget: got %d of %d bytes" !got bytes);
  (!elapsed, !got)

let baseline_wget () =
  (* the comparison systems drive the same simulated link directly *)
  let clock = Clock.create () in
  let hub = Hub.create ~clock () in
  let bytes = !wget_mb * 1024 * 1024 in
  let server = Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"www" () in
  Sim_host.serve_file server ~port:80 ~content:(String.make bytes 'w');
  let client = Sim_host.create ~hub ~clock ~ip:"10.0.0.1" ~mac:"cli" () in
  let (), ns =
    timed clock (fun () ->
        let c = Stack.connect (Sim_host.stack client) ~dst:(Addr.v "10.0.0.2" 80) in
        Stack.send c "GET /big";
        let total = ref 0 in
        let guard = ref 0 in
        while (not (Stack.recv_eof c)) && !guard < 10_000_000 do
          incr guard;
          total := !total + String.length (Stack.recv c)
        done)
  in
  s_of_ns ns

(* ---------- ClamAV scan ---------- *)

let histar_clamav ~wrapped =
  let m = mk_machine () in
  let bytes = !scan_mb * 1024 * 1024 in
  let seconds = ref nan in
  let kernel = m.kernel in
  Histar_apps.Clamav_world.build ~kernel ~network:false ~update_daemon:false ()
    (fun w ->
      let fs = w.Histar_apps.Clamav_world.fs in
      let proc = w.Histar_apps.Clamav_world.proc in
      let rng = Histar_util.Rng.create 99L in
      Fs.write_file fs "/home/bob/bigfile" (Histar_util.Rng.bytes rng bytes);
      if wrapped then begin
        let (), ns =
          timed m.clock (fun () ->
              ignore
                (Histar_apps.Wrap.run ~proc ~user:w.Histar_apps.Clamav_world.bob
                   ~db_path:Histar_apps.Clamav_world.db_path
                   ~paths:[ "/home/bob/bigfile" ] ~timeout_ms:600_000 ()))
        in
        seconds := s_of_ns ns
      end
      else begin
        (* unconfined: the scanner runs with the user's privileges *)
        let db =
          Histar_apps.Scanner.parse_database
            (Fs.read_file fs Histar_apps.Clamav_world.db_path)
        in
        let (), ns =
          timed m.clock (fun () ->
              let data = Fs.read_file fs "/home/bob/bigfile" in
              Sys.usleep (String.length data * 187 / 1000);
              ignore (Histar_apps.Scanner.scan_bytes ~db data))
        in
        seconds := s_of_ns ns
      end);
  Kernel.run kernel;
  !seconds

let baseline_clamav flavor =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let u = Unixsim.create flavor ~disk ~clock () in
  let bytes = !scan_mb * 1024 * 1024 in
  Unixsim.creat u ~uid:1 ~mode:0o644 "/big";
  Unixsim.write u ~uid:1 "/big" (String.make bytes 'x');
  let scan_rate_us_per_byte = match flavor with
    | Unixsim.Linux -> 0.187
    | Unixsim.Openbsd -> 0.212 (* the paper's OpenBSD run was 13% slower *)
  in
  let (), ns =
    timed clock (fun () ->
        ignore (Unixsim.read u ~uid:1 "/big");
        Clock.advance_us clock (float_of_int bytes *. scan_rate_us_per_byte))
  in
  s_of_ns ns

let scale_wget v = v *. (float_of_int paper_wget_mb /. float_of_int !wget_mb)
let scale_scan v = v *. (float_of_int paper_scan_mb /. float_of_int !scan_mb)

let run () =
  header "Figure 13: application-level benchmarks";
  row4 "Benchmark" "HiStar" "Linux" "OpenBSD";
  let hb = histar_build () in
  let lb = baseline_build Unixsim.Linux in
  let bb = baseline_build Unixsim.Openbsd in
  row4
    (Printf.sprintf "building the kernel (%d modules)" !build_files)
    (fmt_time_s hb) (fmt_time_s lb) (fmt_time_s bb);
  paper paper_build_note;
  let ns, got = histar_wget ~bytes:(!wget_mb * 1024 * 1024) in
  let hw = s_of_ns ns in
  let bw = baseline_wget () in
  row4
    (Printf.sprintf "wget %d MB (scaled to 100 MB)" !wget_mb)
    (fmt_time_s (scale_wget hw))
    (fmt_time_s (scale_wget bw))
    (fmt_time_s (scale_wget bw));
  paper "9.1 s / 9.0 s / 9.0 s (all saturate 100 Mbps)";
  Printf.printf "%-38s %12s\n" "  achieved throughput (HiStar)"
    (Printf.sprintf "%.1f Mbps" (float_of_int (got * 8) /. 1e6 /. hw));
  let hs = histar_clamav ~wrapped:false in
  let hsw = histar_clamav ~wrapped:true in
  let ls = baseline_clamav Unixsim.Linux in
  let bs = baseline_clamav Unixsim.Openbsd in
  row4
    (Printf.sprintf "virus-check %d MB (scaled to 100 MB)" !scan_mb)
    (fmt_time_s (scale_scan hs))
    (fmt_time_s (scale_scan ls))
    (fmt_time_s (scale_scan bs));
  paper "18.7 s / 18.7 s / 21.2 s";
  row4 "... with isolation wrapper" (fmt_time_s (scale_scan hsw)) na na;
  paper "18.7 s / — / —";
  Printf.printf "\nShape check: the wrap isolation costs %.1f%% (paper: 0%%).\n"
    ((hsw -. hs) /. hs *. 100.0)
