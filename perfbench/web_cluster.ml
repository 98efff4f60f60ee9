(* web-cluster: [Webcluster] with 8 app nodes and 3 db shards, driven
   by 16 simulated browser clients in a closed loop (a client sends
   its next request only once its reply arrived), users picked
   zipfian over 64 users, cluster stepping on a 2-domain lib/par pool.

   The client loop is the benchmark's own: bare [Stack]s on the front
   hub, the session key every client can compute from its password,
   and one [Cluster.drive] call per batch of replies, so every request
   is timed from send to reply and every [Cluster.drive] round is counted. This
   is the one workload where dist/wire/auth/apps, par stepping and the
   label memos under two domains all run together. *)

open Common
module Sim_clock = Histar_util.Sim_clock
module Checksum = Histar_util.Checksum
module Seal = Histar_crypto.Seal
module Wire = Histar_dist.Wire
module Cluster = Histar_dist.Cluster
module Addr = Histar_net.Addr
module Sim_host = Histar_net.Sim_host
module Stack = Histar_net.Stack
module Webcluster = Histar_apps.Webcluster

let app_nodes = 8
let db_shards = 3
let user_count = 64
let clients = 16
let work_us = 5_000
let warmup = 32

(* What a client derives from its password to open sealed replies. *)
let session_key ~user ~password = Checksum.fnv64 (Printf.sprintf "sess:%s:%s" user password)

(* Zipfian user picker over [n] user indices, weight 1/(rank+1) for
   user [rank]. The popularity order is fixed and the seed draws the
   request sequence: a seeded order moves the hot users between shards
   and the 99th percentile by up to 2x from one seed to the next. *)
let zipf rng n =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun r _ ->
      total := !total +. (1.0 /. float_of_int (r + 1));
      cdf.(r) <- !total)
    cdf;
  fun () ->
    let x = float_of_int (Rng.int rng 1_000_000) /. 1e6 *. !total in
    let rec scan r = if r >= n - 1 || x < cdf.(r) then r else scan (r + 1) in
    scan 0

type inflight = {
  conn : Stack.conn;
  user : string;
  password : string;
  idx : int;  (** index of the user in [Webcluster.users] *)
  sent_v : int64;
  mutable buf : string;
  span : int option;  (** open request span, when tracing *)
}

let run cfg =
  let rng = Rng.create cfg.seed in
  let w0 = wall () in
  let wc =
    Webcluster.build ~app_nodes ~db_shards ~user_count ~seed:cfg.seed ~work_us ()
  in
  let cluster = Webcluster.cluster wc in
  let users = Webcluster.users wc in
  let secrets = Array.map (fun (u, _) -> Webcluster.secret_of wc u) users in
  let pick = zipf (Rng.split rng) (Array.length users) in
  let clock = Sim_clock.create () in
  let skew = Int64.sub (Cluster.global_now_ns cluster) (Sim_clock.now_ns clock) in
  if Int64.compare skew 0L > 0 then Sim_clock.advance_ns clock skew;
  let stacks =
    Array.init clients (fun i ->
        let h =
          Sim_host.create ~hub:(Webcluster.front_hub wc) ~clock
            ~ip:(Printf.sprintf "10.0.0.%d" (10 + i))
            ~mac:(Printf.sprintf "cl%02d" i) ()
        in
        Cluster.add_host cluster ~stack:(Sim_host.stack h) ~clock;
        Sim_host.stack h)
  in
  Cluster.settle cluster;
  let setup_s = wall () -. w0 in
  let rounds = ref 0 in
  Cluster.set_on_tick cluster (Some (fun _ -> incr rounds));
  let r = recorder () in
  let slots = Array.make clients None in
  let drive_wall = ref 0.0 in
  (* One closed-loop phase: clients keep sending while [more ~started]
     holds; the phase ends when every client is idle. [on_done] gets
     each reply's verdict and virtual latency. *)
  let phase ~more ~on_done =
    let started = ref 0 in
    let finish s ~ok ~what =
      Span.close_async s.span;
      on_done ~ok ~what ~virt_ns:(Int64.sub (Cluster.global_now_ns cluster) s.sent_v)
    in
    (* Returns how many requests completed. *)
    let pump () =
      let completed = ref 0 in
      Array.iteri
        (fun i slot ->
          (match slot with
          | None -> ()
          | Some s -> (
              s.buf <- s.buf ^ Stack.recv s.conn;
              match Wire.deframe s.buf with
              | Some (nonce, sealed, _) ->
                  let seal = Seal.create ~key:(session_key ~user:s.user ~password:s.password) in
                  let ok, what =
                    match Seal.unseal_tagged seal ~nonce sealed with
                    | None -> (false, "reply does not unseal")
                    | Some page ->
                        let own = secrets.(s.idx) in
                        if not (contains page own) then (false, "reply lacks the requester's record: " ^ page)
                        else if
                          Array.exists (fun sec -> sec != own && contains page sec) secrets
                        then (false, "reply holds another user's record")
                        else (true, "")
                  in
                  Stack.close s.conn;
                  slots.(i) <- None;
                  incr completed;
                  finish s ~ok ~what
              | None ->
                  if Stack.state s.conn = Stack.Closed then begin
                    slots.(i) <- None;
                    incr completed;
                    finish s ~ok:false
                      ~what:(Option.value (Stack.error s.conn) ~default:"connection closed")
                  end));
          if slots.(i) = None && more ~started:!started then begin
            let idx = !started in
            incr started;
            let k = pick () in
            let user, password = users.(k) in
            let conn = Stack.connect stacks.(i) ~dst:(Addr.v "10.0.0.1" 80) in
            Stack.send conn (Printf.sprintf "%s %s %s\n" user password user);
            slots.(i) <-
              Some
                {
                  conn;
                  user;
                  password;
                  idx = k;
                  sent_v = Cluster.global_now_ns cluster;
                  buf = "";
                  span = Span.open_async ~parent:0 ~op:idx "op.request";
                }
          end)
        slots;
      !completed
    in
    let idle () = Array.for_all Option.is_none slots in
    let rec loop () =
      if pump () = 0 && idle () then ()
      else if idle () then loop ()
      else begin
        let t0 = wall () in
        let progressed =
          Span.with_span ~op:(-1) "dist.drive" (fun () ->
              Cluster.drive cluster ~until:(fun () -> pump () > 0 || idle ()) ())
        in
        drive_wall := !drive_wall +. (wall () -. t0);
        if progressed then loop ()
        else
          (* Stalled: fail whatever is still in flight. *)
          Array.iteri
            (fun i slot ->
              match slot with
              | Some s ->
                  slots.(i) <- None;
                  finish s ~ok:false ~what:"cluster stalled"
              | None -> ())
            slots
      end
    in
    loop ()
  in
  let served0 = ref [||] and v_start = ref 0L and t_end = ref 0.0 in
  let window =
    if cfg.setup_only then no_window ()
    else begin
      phase
        ~more:(fun ~started -> started < warmup)
        ~on_done:(fun ~ok:_ ~what:_ ~virt_ns:_ -> ());
      let close = open_window () in
      Span.reset ~clock:(fun () -> Cluster.global_now_ns cluster);
      served0 := Webcluster.served wc;
      rounds := 0;
      drive_wall := 0.0;
      v_start := Cluster.global_now_ns cluster;
      begin_phase r ~virt:!v_start;
      phase
        ~more:(fun ~started -> keep_going cfg r ~started)
        ~on_done:(fun ~ok ~what ~virt_ns -> record r ~virt_ns ~ok ~what);
      t_end := wall ();
      close ()
    end
  in
  let virt_ns = Int64.sub (Cluster.global_now_ns cluster) !v_start in
  let served =
    if cfg.setup_only then [||]
    else Array.mapi (fun i s -> s - !served0.(i)) (Webcluster.served wc)
  in
  let total = Array.fold_left ( + ) 0 served in
  let mean = ratio (fi total) (fi app_nodes) in
  let n = fi r.n in
  ( {
      rec_ = r;
      t_end = !t_end;
      virt_ns;
      setup_s;
      checks = [];
      layers =
        [
          ( "apps.render_util",
            ratio (fi (work_us * total)) (Int64.to_float virt_ns /. 1e3 *. fi app_nodes) );
          ("apps.served_imbalance", ratio (fi (Array.fold_left max 0 served)) mean);
          ("dist.drive_wall_us_per_round", ratio (!drive_wall *. 1e6) (fi !rounds));
          ("dist.rounds_per_req", ratio (fi !rounds) n);
        ];
      user_bytes = 0;
      window;
      needles =
        List.concat_map
          (fun (user, password) ->
            let key = session_key ~user ~password in
            List.filter
              (fun s -> String.length s >= 8)
              [
                password;
                Webcluster.secret_of wc user;
                Printf.sprintf "%Ld" key;
                Printf.sprintf "%Lx" key;
                Printf.sprintf "%016Lx" key;
              ])
          (Array.to_list users);
    },
    Span.all () )
