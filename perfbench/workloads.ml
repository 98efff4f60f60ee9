(* The benchmark's workload registry. *)

type spec = {
  name : string;
  domains : int;  (** lib/par pool width the workload runs at *)
  run : Common.cfg -> Common.outcome * Span.t list;
}

let all =
  [
    { name = "store-sync"; domains = 1; run = Store_sync.run };
    { name = "net-fetch"; domains = 1; run = Net_fetch.run };
    { name = "web-cluster"; domains = 2; run = Web_cluster.run };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all
