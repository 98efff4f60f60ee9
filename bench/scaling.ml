(* Wall-clock scaling of the two bulk data paths: a tainted wget
   through netd (every byte crosses the user-level TCP stack), and a
   file written in 8 KB appends and fsynced (large-file-rand's
   sequential phase: every append resizes the file segment). Virtual
   time is linear in the size by construction; wall time should be
   too, about 2x per doubling. Wall figures depend on the host, so
   each cell is the median of three runs. *)

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
  let ms = List.map (fun mb -> median_wall_ms (fun () -> f mb)) sizes in
  Printf.printf "%-26s" name;
  List.iter (Printf.printf " %9.1f") ms;
  Printf.printf "\n%-26s %9s" "  x per doubling" "";
  List.iteri
    (fun i v -> if i > 0 then Printf.printf " %9.2f" (v /. List.nth ms (i - 1)))
    ms;
  print_newline ()

let run () =
  header "Scaling: wall ms of the bulk data paths (median of 3)";
  let sizes = [ 1; 2; 4; 8; 16 ] in
  Printf.printf "%-26s" "size (MB)";
  List.iter (fun mb -> Printf.printf " %9d" mb) sizes;
  print_newline ();
  row "wget through netd" [ 1; 2; 4; 8 ] (fun mb ->
      ignore (F13_apps.histar_wget ~bytes:(mb lsl 20)));
  row "8 KB appends + fsync" sizes (fun mb -> append ~mb)
