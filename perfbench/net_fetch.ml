(* net-fetch: one tainted wget-style client process fetching seeded
   objects of about 1 KB, 16 KB, 256 KB and 1 MB from an external
   [Sim_host] through netd, checking each body and discarding it.

   Small fetches are dominated by per-request gate IPC, label and
   kernel dispatch work; large ones by per-byte copying in [Stack].
   Nothing is persisted, so the store stays idle: a net-stack change
   shows here and should read "no change" on store-sync. *)

open Common
module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Clock = Histar_util.Sim_clock
module Disk = Histar_disk.Disk
module Store = Histar_store.Store
module Fs = Histar_unix.Fs
module Process = Histar_unix.Process
module Hub = Histar_net.Hub
module Addr = Histar_net.Addr
module Sim_host = Histar_net.Sim_host
module Netd = Histar_net.Netd
module Stack = Histar_net.Stack
open Histar_label

let kb = 1024

(* Size classes with their share of every 20 fetches. *)
let classes = [| (kb, 8); (16 * kb, 6); (256 * kb, 4); (1024 * kb, 2) |]

(* Each class holds [per_class] objects whose sizes are spread evenly
   over 0.75x..1.25x of the class size (one seeded size per stratum),
   so every seed sees the same size distribution with new bytes. *)
let per_class = 64
let warmup = 20

type obj = { name : string; size : int; tag : string; off : int }

let catalog rng =
  Array.mapi
    (fun c (base, _) ->
      Array.init per_class (fun k ->
          let u = float_of_int (Rng.int rng 1_000_000) /. 1e6 in
          let size =
            int_of_float
              (float_of_int base *. (0.75 +. (0.5 *. (float_of_int k +. u) /. float_of_int per_class)))
          in
          let name = Printf.sprintf "/o/%d/%d" c k in
          let tag = Printf.sprintf "<obj %s %08x>" name (Rng.int rng 0x3fffffff) in
          { name; size; tag; off = Rng.int rng (256 * kb) }))
    classes

(* Object bodies are their tag followed by a window of a seeded text
   pool; server and checker both derive them from here. *)
let body pool o = o.tag ^ String.sub pool o.off (o.size - String.length o.tag)

let serve server pool objs =
  let by_name = Hashtbl.create 256 in
  Array.iter (Array.iter (fun o -> Hashtbl.replace by_name o.name o)) objs;
  let pending = Hashtbl.create 8 in
  Sim_host.serve server ~port:80
    ~on_data:(fun c data ->
      let buf = Option.value (Hashtbl.find_opt pending c) ~default:"" ^ data in
      match String.index_opt buf '\n' with
      | None -> Hashtbl.replace pending c buf
      | Some i ->
          Hashtbl.remove pending c;
          (match String.split_on_char ' ' (String.sub buf 0 i) with
          | [ "GET"; name ] when Hashtbl.mem by_name name ->
              Stack.send c (body pool (Hashtbl.find by_name name))
          | _ -> Stack.send c "404");
          Stack.close c)
    ~on_eof:(fun c -> Stack.close c)

let run cfg =
  let rng = Rng.create cfg.seed in
  let w0 = wall () in
  let pool = text rng ((256 + 1280) * kb) in
  let objs = catalog rng in
  let next_class = deck (Rng.split rng) (Array.to_list (Array.mapi (fun c (_, n) -> (c, n)) classes)) in
  let next_obj =
    Array.map (fun _ -> deck (Rng.split rng) (List.init per_class (fun k -> (k, 1)))) objs
  in
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let store = Store.format ~disk () in
  let kernel = Kernel.create ~seed:cfg.seed ~clock ~store ~syscall_cost_ns:120 () in
  let hub = Hub.create ~clock () in
  let server = Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"www" () in
  serve server pool objs;
  let r = recorder () in
  let setup_s = ref 0.0 and t_end = ref 0.0 and virt_ns = ref 0L in
  let window = ref None in
  (* Wall time and bytes of measured fetches, per size class. *)
  let by_class = Array.map (fun _ -> (0.0, 0)) classes in
  let _tid =
    Kernel.spawn kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root kernel) ~label:(Label.make Level.L1) in
        let proc = Process.boot ~fs ~container:(Kernel.root kernel) ~name:"init" () in
        let i = Sys.cat_create () in
        let netd =
          Netd.start kernel ~hub ~container:(Kernel.root kernel)
            ~ip:(Addr.ip_of_string "10.0.0.1") ~mac:"km" ~taint:i ()
        in
        let scratch =
          Sys.container_create ~container:(Process.container proc)
            ~label:(Label.of_list [ (i, Level.L2) ] Level.L1)
            ~quota:2_097_152L "wget scratch"
        in
        ignore
          (Process.spawn proc ~name:"wget" ~extra_label:[ (i, Level.L2) ]
             ~extra_clearance:[ (i, Level.L2) ]
             (fun _w ->
               setup_s := wall () -. w0;
               let rc = scratch in
               let fetch idx o =
                 let sock =
                   Span.with_span ~op:idx "net.connect" (fun () ->
                       Netd.Client.connect netd ~return_container:rc (Addr.v "10.0.0.2" 80))
                 in
                 Span.with_span ~op:idx "net.send" (fun () ->
                     Netd.Client.send netd ~return_container:rc sock ("GET " ^ o.name ^ "\n"));
                 let buf = Buffer.create o.size in
                 let rec loop () =
                   match
                     Span.with_span ~op:idx "net.recv" (fun () ->
                         Netd.Client.recv netd ~return_container:rc sock)
                   with
                   | Some d ->
                       Buffer.add_string buf d;
                       loop ()
                   | None -> ()
                 in
                 loop ();
                 Span.with_span ~op:idx "net.close" (fun () ->
                     Netd.Client.close netd ~return_container:rc sock);
                 String.equal (Buffer.contents buf) (body pool o)
               in
               let attempt idx =
                 let c = next_class () in
                 let o = objs.(c).(next_obj.(c) ()) in
                 let t0 = wall () and v0 = Sys.clock_ns () in
                 let ok, what =
                   match Span.with_span ~op:idx "op.fetch" (fun () -> fetch idx o) with
                   | true -> (true, "")
                   | false -> (false, "body mismatch for " ^ o.name)
                   | exception e -> (false, Printexc.to_string e)
                 in
                 (c, o, ok, what, wall () -. t0, Int64.sub (Sys.clock_ns ()) v0)
               in
               if not cfg.setup_only then begin
                 for k = 1 to warmup do
                   ignore (attempt (-k))
                 done;
                 let close = open_window () in
                 Span.reset ~clock:(fun () -> Clock.now_ns clock);
                 begin_phase r ~virt:(Sys.clock_ns ());
                 let started = ref 0 in
                 while keep_going cfg r ~started:!started do
                   let idx = !started in
                   incr started;
                   let c, o, ok, what, w, v = attempt idx in
                   let cw, cb = by_class.(c) in
                   by_class.(c) <- (cw +. w, cb + o.size);
                   record r ~virt_ns:v ~ok ~what
                 done;
                 t_end := wall ();
                 virt_ns := Int64.sub (Sys.clock_ns ()) r.v0;
                 window := Some (close ())
               end)
            : Process.handle))
  in
  Kernel.run kernel;
  if !setup_s = 0.0 then failwith "net-fetch: client did not start";
  let spans = Span.all () in
  let per_kb (w, bytes) = ratio (w *. 1e6) (float_of_int bytes /. float_of_int kb) in
  let median_wall name = fst (span_medians spans name) in
  ( {
      rec_ = r;
      t_end = !t_end;
      virt_ns = !virt_ns;
      setup_s = !setup_s;
      checks = [];
      layers =
        [
          ("net.connect.wall_us", median_wall "net.connect");
          ("net.recv.wall_us", median_wall "net.recv");
          (* Per-byte cost at ~16 KB, past the per-request cost that
             dominates 1 KB, and at ~1 MB, where per-byte copying in
             [Stack] dominates. *)
          ("net.wall_us_per_kb.small", per_kb by_class.(1));
          ("net.wall_us_per_kb.large", per_kb by_class.(3));
        ];
      user_bytes = 0;
      window = Option.value !window ~default:(no_window ());
      needles =
        List.concat_map
          (fun cls -> Array.to_list (Array.map (fun o -> String.sub (body pool o) 0 32) cls))
          (Array.to_list objs);
    },
    spans )
