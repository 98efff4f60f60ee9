(* Determinism self-check of the benchmark, run by [dune runtest].

   For every workload, at a fixed operation count:
   - two runs with the same seed agree bit for bit on every virtual
     metric, on ok_frac and on every count-based layer metric;
   - a traced and an untraced run agree on the virtual metrics (tracing
     must not perturb the run);
   - a different seed changes the operation sequence;
   - the trace dump passes the plaintext-secret scan, and the scan finds
     a secret planted in it.
   web-cluster must also agree with itself at 1 and 2 pool domains. *)

open Perfbench

let ops = [ ("store-sync", 120); ("net-fetch", 60); ("web-cluster", 160) ]

let run name ~seed ~trace ~domains n =
  let spec = Option.get (Workloads.find name) in
  Histar_par.Par.set_domains domains;
  Histar_metrics.Metrics.set_enabled trace;
  Span.on := trace;
  let cfg = { Common.seed; stop = Common.Ops n; setup_only = false } in
  let o, spans = spec.Workloads.run cfg in
  if o.Common.rec_.Common.failed > 0 || not (List.for_all snd o.Common.checks) then
    failwith (name ^ ": run failed its output checks");
  (o, spans)

(* Metrics that are functions of the seed alone: virtual time, counts,
   ratios of counts. Wall-clock and GC figures are excluded. *)
let deterministic o =
  let e2e =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"virt_" k || k = "ok_frac")
      (Common.end_to_end o)
  in
  let layers =
    List.filter
      (fun (k, _) ->
        not (String.starts_with ~prefix:"gc." k || Common.contains k "wall"))
      (Common.layer_metrics o)
  in
  (e2e, layers)

let sequence o =
  let r = o.Common.rec_ in
  Array.sub r.Common.lat 0 r.Common.n

let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let same_metrics what a b =
  let diffs = List.filter (fun (k, v) -> List.assoc k b <> v) a in
  List.iter
    (fun (k, v) -> Printf.printf "  %s: %.17g vs %.17g\n" k v (List.assoc k b))
    diffs;
  expect what (diffs = [])

let () =
  List.iter
    (fun (name, n) ->
      let spec = Option.get (Workloads.find name) in
      let d = spec.Workloads.domains in
      let a, spans = run name ~seed:11L ~trace:true ~domains:d n in
      let b, _ = run name ~seed:11L ~trace:true ~domains:d n in
      let ea, la = deterministic a and eb, lb = deterministic b in
      same_metrics (name ^ ": same seed, same virtual metrics") ea eb;
      same_metrics (name ^ ": same seed, same count-based layer metrics") la lb;
      let u, _ = run name ~seed:11L ~trace:false ~domains:d n in
      same_metrics (name ^ ": tracing leaves virtual metrics unchanged") ea
        (fst (deterministic u));
      if d > 1 then begin
        let one, _ = run name ~seed:11L ~trace:true ~domains:1 n in
        let e1, l1 = deterministic one in
        same_metrics (name ^ ": 1 vs 2 domains, same virtual metrics") ea e1;
        same_metrics (name ^ ": 1 vs 2 domains, same count-based layer metrics") la l1
      end;
      let c, _ = run name ~seed:12L ~trace:false ~domains:d n in
      expect (name ^ ": another seed, another operation sequence") (sequence c <> sequence a);
      (* The dump passes the plaintext scan, and the scan is not vacuous:
         a planted secret is found. *)
      let path = name ^ "-scan.jsonl" in
      Span.dump ~path spans;
      let needles = a.Common.needles in
      expect (name ^ ": trace dump holds no plaintext secret") (Span.scan_file ~path needles = []);
      let planted = List.hd needles in
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc planted;
      close_out oc;
      expect (name ^ ": plaintext scan finds a planted secret")
        (Span.scan_file ~path needles = [ planted ]);
      Sys.remove path)
    ops;
  if !failures > 0 then exit 1
