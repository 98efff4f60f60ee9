(* Wall-clock scaling of the two bulk data paths and of the web
   cluster: a tainted wget through netd (every byte crosses the
   user-level TCP stack), a file written in 8 KB appends and fsynced
   (large-file-rand's sequential phase: every append resizes the file
   segment), and the dist-cluster-8 request batch at growing request
   counts (every request spawns threads on the balancer, an app node
   and a shard; they must be reaped, and no per-timer or per-frame
   kernel path may scan the object table). Virtual time is linear by
   construction; wall time should be too, about 2x per doubling. Wall
   figures depend on the host, so each cell is the median of three
   runs. *)

open Harness

let median_wall_ms f =
  let once () =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  let a = Array.init 3 (fun _ -> once ()) in
  Array.sort compare a;
  a.(1)

let append ~mb =
  let m = mk_machine () in
  boot m (fun fs proc -> ignore (F12_lfs.large_writes m fs proc ~mb ~writes:0))

let row name sizes f =
  let ms = List.map (fun n -> median_wall_ms (fun () -> f n)) sizes in
  Printf.printf "%-26s" name;
  List.iter (Printf.printf " %9.1f") ms;
  Printf.printf "\n%-26s %9s" "  x per doubling" "";
  List.iteri
    (fun i v -> if i > 0 then Printf.printf " %9.2f" (v /. List.nth ms (i - 1)))
    ms;
  print_newline ()

let run () =
  header "Scaling: wall ms by data size and by request count (median of 3)";
  let sizes = [ 1; 2; 4; 8; 16 ] in
  Printf.printf "%-26s" "size (MB)";
  List.iter (fun mb -> Printf.printf " %9d" mb) sizes;
  print_newline ();
  row "wget through netd" [ 1; 2; 4; 8 ] (fun mb ->
      ignore (F13_apps.histar_wget ~bytes:(mb lsl 20)));
  row "8 KB appends + fsync" sizes (fun mb -> append ~mb);
  let requests = [ 240; 480; 960; 1920 ] in
  Printf.printf "%-26s" "requests";
  List.iter (fun n -> Printf.printf " %9d" n) requests;
  print_newline ();
  row "web cluster, 8 app nodes" requests (fun n ->
      ignore (Runner.dist_cluster ~nodes:8 ~requests:n Runner.Full : int64))
