(** A two-port bridge between {!Hub}s: multi-hub IP routing for the
    simulated network. Attaches one port to each hub as its default
    route; frames for IPs the far hub owns are re-addressed to the
    owner's MAC and injected there. Broadcasts are not forwarded. *)

type t

val connect :
  a:Hub.t ->
  a_ip:Addr.ip ->
  b:Hub.t ->
  b_ip:Addr.ip ->
  ?mac:string ->
  unit ->
  t
(** Attach the bridge between [a] and [b], registering port IPs
    [a_ip]/[b_ip] and installing the ports as each hub's default
    route. *)

