(* One benchmark process: set up one workload from a seed, measure it,
   check its outputs, and print the result as one JSON line (last line
   of stdout). perfbench/run.py drives this executable; see
   perfbench/README.md.

   usage: main.exe (run | setup) --workload NAME --seed N
                   (--seconds S | --ops N) [--trace 0|1] [--domains D]
                   [--dump-dir DIR] *)

open Perfbench
module Metrics = Histar_metrics.Metrics
module Par = Histar_par.Par

let usage () =
  prerr_endline
    "usage: main.exe (run | setup) --workload NAME --seed N (--seconds S | --ops N) \
     [--trace 0|1] [--domains D] [--dump-dir DIR]";
  exit 2

let parse argv =
  let mode = ref None and workload = ref None and seed = ref None in
  let stop = ref None and trace = ref false and domains = ref None in
  let dump_dir = ref "." in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | ("run" | "setup") as m :: rest ->
        mode := Some m;
        go rest
    | "--workload" :: w :: rest ->
        workload := Some w;
        go rest
    | "--seed" :: s :: rest ->
        seed := Some (Int64.of_int (int_arg s));
        go rest
    | "--seconds" :: s :: rest ->
        stop := Some (Common.Deadline (float_of_int (int_arg s)));
        go rest
    | "--ops" :: s :: rest ->
        stop := Some (Common.Ops (int_arg s));
        go rest
    | "--trace" :: s :: rest ->
        trace := int_arg s <> 0;
        go rest
    | "--domains" :: s :: rest ->
        domains := Some (int_arg s);
        go rest
    | "--dump-dir" :: d :: rest ->
        dump_dir := d;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!mode, !workload, !seed) with
  | Some mode, Some w, Some seed ->
      let spec = match Workloads.find w with Some s -> s | None -> usage () in
      let stop =
        match (!stop, mode) with
        | Some s, _ -> s
        | None, "setup" -> Common.Ops 0
        | None, _ -> usage ()
      in
      ( spec,
        { Common.seed; stop; setup_only = mode = "setup" },
        !trace,
        Option.value !domains ~default:spec.Workloads.domains,
        !dump_dir )
  | _ -> usage ()

(* Every digit of a measured value (Json.Float keeps only 12). *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let () =
  let spec, cfg, trace, domains, dump_dir = parse Sys.argv in
  Par.set_domains domains;
  Metrics.set_enabled trace;
  Span.on := trace;
  if cfg.setup_only then begin
    (* Set up at least 5 times and for at least a second (at most 50
       times), and report the median: the first set-up in a process
       also pays for growing a fresh heap, which swings with the
       host's page-fault cost, so a single set-up reads unsteadily. *)
    let rec reps acc total =
      let n = List.length acc in
      if n >= 50 || (n >= 5 && total >= 1.0) then acc
      else
        let s = (fst (spec.Workloads.run cfg)).Common.setup_s in
        reps (s :: acc) (total +. s)
    in
    let samples = List.rev (reps [] 0.0) in
    Printf.printf "set-up samples (s): %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.6f") samples));
    print_endline (json_obj [ ("setup_s", json_num (Common.median samples)) ])
  end
  else begin
    let o, spans = spec.Workloads.run cfg in
    let r = o.Common.rec_ in
    let e2e = Common.end_to_end o in
    let scan =
      if not trace then []
      else begin
        let path =
          Filename.concat dump_dir
            (Printf.sprintf "trace-%s-%Ld.jsonl" spec.Workloads.name cfg.seed)
        in
        Span.dump ~path spans;
        Printf.printf "trace dump: %s (%d spans)\n" path (List.length spans);
        Printf.printf "%-24s %8s %14s %14s %14s %14s\n" "span" "count" "wall_us"
          "self_wall_us" "virt_us" "self_virt_us";
        List.iter
          (fun (name, (n, w, ws, v, vs)) ->
            Printf.printf "%-24s %8d %14.0f %14.0f %14.0f %14.0f\n" name n w ws
              (v /. 1e3) (vs /. 1e3))
          (Span.summary spans);
        let leaks = Span.scan_file ~path o.Common.needles in
        List.iter (fun n -> Printf.printf "PLAINTEXT IN TRACE DUMP: %S\n" n) leaks;
        [ ("trace_scan", leaks = []) ]
      end
    in
    let checks = o.Common.checks @ scan in
    let correct = r.Common.failed = 0 && List.for_all snd checks in
    List.iter
      (fun (k, v) -> Printf.printf "check %-16s %s\n" k (if v then "ok" else "FAILED"))
      checks;
    Option.iter (Printf.printf "first failure: %s\n") r.Common.first_failure;
    Printf.printf "operations %d, failed %d, fail_frac %g, latency samples %d\n" r.Common.n
      r.Common.failed
      (Common.ratio (float_of_int r.Common.failed) (float_of_int r.Common.n))
      r.Common.n;
    List.iter (fun (k, v) -> Printf.printf "%-22s %.6g\n" k v) e2e;
    let layers = if trace then Common.layer_metrics o else [] in
    print_endline
      (json_obj
         [
           ("workload", Printf.sprintf "%S" spec.Workloads.name);
           ("correct", string_of_bool correct);
           ("attempted", string_of_int r.Common.n);
           ("failed", string_of_int r.Common.failed);
           ("domains", string_of_int domains);
           ("wall_s", json_num (Common.wall_s o));
           ("checks", json_obj (List.map (fun (k, v) -> (k, string_of_bool v)) checks));
           ("e2e", json_obj (List.map (fun (k, v) -> (k, json_num v)) e2e));
           ("layers", json_obj (List.map (fun (k, v) -> (k, json_num v)) layers));
         ])
  end
