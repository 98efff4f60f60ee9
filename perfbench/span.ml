(* In-memory span recorder for the traced run.

   Spans are opened and closed by the benchmark's own code around its
   calls into each layer's public functions; nothing inside lib/ is
   instrumented. Each span carries its operation id, its parent span,
   wall and virtual start/end, and the deltas of a fixed set of
   registry counters over its interval. Spans stay in memory until the
   run ends, when [dump] writes them out as JSON lines with each
   span's self time (its duration minus the part of it that its
   children cover).

   With tracing off every entry point is one branch on [on], so the
   untraced run executes the same benchmark code minus the recording. *)

module Metrics = Histar_metrics.Metrics

(* Counters read at every span boundary: the work counts an
   optimisation of one layer is most likely to move. *)
let probe_names =
  [|
    "kernel.syscalls";
    "label.checks";
    "label.elided";
    "btree.node_touches";
    "wal.commit_sectors";
    "store.synced_oids";
    "disk.media_sector_writes";
    "disk.flushes";
    "net.frames_sent";
    "net.segments_sent";
    "net.dist_calls";
    "webcluster.session_hits";
  |]

let probes = Array.map Metrics.counter probe_names
let nprobes = Array.length probes

(* Open and finished spans live in one flat float table, one row per
   span in start order: the major GC never scans it, so recording
   thousands of spans does not slow every later collection. Integer
   fields (ids, virtual ns, counter values) are exact in a double. *)
let c_parent = 0
let c_name = 1
let c_op = 2
let c_w0 = 3
let c_w1 = 4
let c_v0 = 5
let c_v1 = 6
let c_counters = 7
let stride = c_counters + nprobes
let table = ref (Float.Array.create (1024 * stride))
let rows = ref 0
let names : (string, int) Hashtbl.t = Hashtbl.create 16
let name_list = ref [||]

let name_id name =
  match Hashtbl.find_opt names name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names name i;
      name_list := Array.append !name_list [| name |];
      i

let on = ref false
let vnow = ref (fun () -> 0L)
let current = ref 0

let set row col v = Float.Array.set !table ((row * stride) + col) v
let get row col = Float.Array.get !table ((row * stride) + col)

(* Returns the new span's id (its row + 1; 0 means no parent). *)
let start ?parent ~op name =
  let parent = match parent with Some p -> p | None -> !current in
  if (!rows + 1) * stride > Float.Array.length !table then begin
    let bigger = Float.Array.create (2 * Float.Array.length !table) in
    Float.Array.blit !table 0 bigger 0 (Float.Array.length !table);
    table := bigger
  end;
  let row = !rows in
  incr rows;
  set row c_parent (float_of_int parent);
  set row c_name (float_of_int (name_id name));
  set row c_op (float_of_int op);
  for i = 0 to nprobes - 1 do
    set row (c_counters + i) (float_of_int (Metrics.Counter.value probes.(i)))
  done;
  set row c_v0 (Int64.to_float (!vnow ()));
  set row c_w0 (Unix.gettimeofday ());
  row + 1

let finish id =
  let row = id - 1 in
  set row c_w1 (Unix.gettimeofday ());
  set row c_v1 (Int64.to_float (!vnow ()));
  for i = 0 to nprobes - 1 do
    let c = c_counters + i in
    set row c (float_of_int (Metrics.Counter.value probes.(i)) -. get row c)
  done

(* Open a span around [f], nested under the innermost open one. *)
let with_span ~op name f =
  if not !on then f ()
  else begin
    let id = start ~op name in
    let saved = !current in
    current := id;
    Fun.protect
      ~finally:(fun () ->
        current := saved;
        finish id)
      f
  end

(* Spans whose start and end are not lexically nested (a web-cluster
   request is sent in one [Cluster.drive] round and answered in a later
   one). *)
let open_async ~parent ~op name = if !on then Some (start ~parent ~op name) else None
let close_async = function Some id -> finish id | None -> ()

let reset ~clock =
  vnow := clock;
  rows := 0;
  current := 0

(* A finished span, materialised once the measured phase is over. *)
type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  op : int;  (** operation id; negative outside measured operations *)
  w0 : float;
  w1 : float;
  v0 : int64;
  v1 : int64;
  dc : int array;  (** counter deltas, in [probe_names] order *)
}

let all () =
  List.init !rows (fun row ->
      {
        id = row + 1;
        parent = int_of_float (get row c_parent);
        name = !name_list.(int_of_float (get row c_name));
        op = int_of_float (get row c_op);
        w0 = get row c_w0;
        w1 = get row c_w1;
        v0 = Int64.of_float (get row c_v0);
        v1 = Int64.of_float (get row c_v1);
        dc = Array.init nprobes (fun i -> int_of_float (get row (c_counters + i)));
      })

(* ---------- self time ---------- *)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered lo hi intervals =
  let sorted = List.sort compare intervals in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b <= a then (total, cur)
        else
          match cur with
          | None -> (total, Some (a, b))
          | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
          | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match cur with Some (a, b) -> total +. (b -. a) | None -> total

(* Per-span (self wall seconds, self virtual ns). *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s)
    spans;
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let cs = Hashtbl.find_all kids s.id in
      let wall =
        s.w1 -. s.w0 -. covered s.w0 s.w1 (List.map (fun c -> (c.w0, c.w1)) cs)
      in
      let vf x = Int64.to_float x in
      let virt =
        vf (Int64.sub s.v1 s.v0)
        -. covered (vf s.v0) (vf s.v1)
             (List.map (fun c -> (vf c.v0, vf c.v1)) cs)
      in
      Hashtbl.replace self s.id (wall, virt))
    spans;
  self

(* ---------- dump ---------- *)

let dump ~path spans =
  let self = self_times spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          let sw, sv = Hashtbl.find self s.id in
          let counters =
            Array.to_list
              (Array.mapi
                 (fun i d ->
                   if d = 0 then None
                   else Some (Printf.sprintf "\"%s\":%d" probe_names.(i) d))
                 s.dc)
            |> List.filter_map Fun.id |> String.concat ","
          in
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"op\":%d,\"wall_start_s\":%.6f,\"wall_end_s\":%.6f,\"virt_start_ns\":%Ld,\"virt_end_ns\":%Ld,\"self_wall_us\":%.3f,\"self_virt_ns\":%.0f,\"counters\":{%s}}\n"
            s.id s.parent s.name s.op s.w0 s.w1 s.v0 s.v1 (sw *. 1e6) sv
            counters)
        spans)

(* Per-name totals: count, wall us, self wall us, virtual ns, self
   virtual ns — the layer table printed after a traced run. *)
let summary spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let sw, sv = Hashtbl.find self s.id in
      let n, w, ws, v, vs =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0., 0., 0.)
      in
      Hashtbl.replace tbl s.name
        ( n + 1,
          w +. ((s.w1 -. s.w0) *. 1e6),
          ws +. (sw *. 1e6),
          v +. Int64.to_float (Int64.sub s.v1 s.v0),
          vs +. sv ))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

(* ---------- plaintext-secret scan ---------- *)

(* Every needle is at least 8 bytes; an 8-byte prefix index makes the
   scan one table probe per dump byte whatever the needle count. *)
let scan_file ~path needles =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let idx = Hashtbl.create 1024 in
  List.iter
    (fun n ->
      if String.length n < 8 then
        invalid_arg (Printf.sprintf "secret scan: needle %S is shorter than 8 bytes" n);
      Hashtbl.add idx (String.sub n 0 8) n)
    needles;
  let len = String.length data in
  let found = ref [] in
  for i = 0 to len - 8 do
    match Hashtbl.find_all idx (String.sub data i 8) with
    | [] -> ()
    | cands ->
        List.iter
          (fun n ->
            let ln = String.length n in
            if i + ln <= len && String.sub data i ln = n then
              found := n :: !found)
          cands
  done;
  List.sort_uniq compare !found
