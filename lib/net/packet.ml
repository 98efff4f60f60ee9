module Codec = Histar_util.Codec

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type tcp = {
  src_port : Addr.port;
  dst_port : Addr.port;
  seq : int;
  ack_no : int;
  flags : tcp_flags;
  window : int;
  payload : string;
}

type udp = { usrc_port : Addr.port; udst_port : Addr.port; upayload : string }
type proto = Tcp of tcp | Udp of udp
type ip_packet = { src_ip : Addr.ip; dst_ip : Addr.ip; proto : proto }
type frame = { src_mac : string; dst_mac : string; ip : ip_packet }

let no_flags = { syn = false; ack = false; fin = false; rst = false }

(* Every frame carries an FCS trailer (fnv64 over the body), checked
   by [frame_of_bytes].  A frame whose bits flipped on the wire fails
   the check and is dropped at the receiving NIC rather than handed
   to the stack — the guarantee that makes injected frame corruption
   indistinguishable from loss at the transport layer. *)
let frame_to_bytes f =
  let e = Codec.Enc.create () in
  Codec.Enc.str e f.src_mac;
  Codec.Enc.str e f.dst_mac;
  Codec.Enc.u32 e f.ip.src_ip;
  Codec.Enc.u32 e f.ip.dst_ip;
  (match f.ip.proto with
  | Tcp t ->
      Codec.Enc.u8 e 6;
      Codec.Enc.u16 e t.src_port;
      Codec.Enc.u16 e t.dst_port;
      Codec.Enc.u32 e t.seq;
      Codec.Enc.u32 e t.ack_no;
      let bits =
        (if t.flags.syn then 1 else 0)
        lor (if t.flags.ack then 2 else 0)
        lor (if t.flags.fin then 4 else 0)
        lor if t.flags.rst then 8 else 0
      in
      Codec.Enc.u8 e bits;
      Codec.Enc.u32 e t.window;
      Codec.Enc.str e t.payload
  | Udp u ->
      Codec.Enc.u8 e 17;
      Codec.Enc.u16 e u.usrc_port;
      Codec.Enc.u16 e u.udst_port;
      Codec.Enc.str e u.upayload);
  let body = Codec.Enc.to_string e in
  let fcs = Codec.Enc.create () in
  Codec.Enc.i64 fcs (Histar_util.Checksum.fnv64 body);
  body ^ Codec.Enc.to_string fcs

let frame_of_bytes s =
  match
    let n = String.length s in
    if n < 8 then raise Codec.Truncated;
    let body_len = n - 8 in
    let fcs = Codec.Dec.i64 (Codec.Dec.of_string (String.sub s body_len 8)) in
    if not
         (Int64.equal fcs
            (Histar_util.Checksum.fnv64_sub s ~pos:0 ~len:body_len))
    then raise Codec.Truncated;
    let d = Codec.Dec.of_string (String.sub s 0 body_len) in
    let src_mac = Codec.Dec.str d in
    let dst_mac = Codec.Dec.str d in
    let src_ip = Codec.Dec.u32 d in
    let dst_ip = Codec.Dec.u32 d in
    let proto =
      match Codec.Dec.u8 d with
      | 6 ->
          let src_port = Codec.Dec.u16 d in
          let dst_port = Codec.Dec.u16 d in
          let seq = Codec.Dec.u32 d in
          let ack_no = Codec.Dec.u32 d in
          let bits = Codec.Dec.u8 d in
          let window = Codec.Dec.u32 d in
          let payload = Codec.Dec.str d in
          Tcp
            {
              src_port;
              dst_port;
              seq;
              ack_no;
              flags =
                {
                  syn = bits land 1 <> 0;
                  ack = bits land 2 <> 0;
                  fin = bits land 4 <> 0;
                  rst = bits land 8 <> 0;
                };
              window;
              payload;
            }
      | 17 ->
          let usrc_port = Codec.Dec.u16 d in
          let udst_port = Codec.Dec.u16 d in
          let upayload = Codec.Dec.str d in
          Udp { usrc_port; udst_port; upayload }
      | _ -> raise Codec.Truncated
    in
    { src_mac; dst_mac; ip = { src_ip; dst_ip; proto } }
  with
  | f -> Some f
  | exception Codec.Truncated -> None

