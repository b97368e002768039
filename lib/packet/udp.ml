type payload = Dhcp of Dhcp.t | Data of string

type t = { src_port : int; dst_port : int; payload : payload }

let protocol = 17

let payload_wire t =
  match t.payload with Dhcp d -> Dhcp.to_wire d | Data s -> s

let to_wire t =
  let body = payload_wire t in
  let w = Wire.W.create ~size:(8 + String.length body) () in
  Wire.W.u16 w t.src_port;
  Wire.W.u16 w t.dst_port;
  Wire.W.u16 w (8 + String.length body);
  Wire.W.u16 w 0; (* checksum: unchecked *)
  Wire.W.string w body;
  Wire.W.contents w

let of_wire s =
  try
    let r = Wire.R.of_string s in
    let src_port = Wire.R.u16 r in
    let dst_port = Wire.R.u16 r in
    let len = Wire.R.u16 r in
    let _csum = Wire.R.u16 r in
    if len < 8 then None
    else
      let body = Wire.R.bytes r (min (len - 8) (Wire.R.remaining r)) in
      let payload =
        if src_port = Dhcp.server_port || dst_port = Dhcp.server_port
           || src_port = Dhcp.client_port || dst_port = Dhcp.client_port
        then
          match Dhcp.of_wire body with
          | Some d -> Dhcp d
          | None -> Data body
        else Data body
      in
      Some { src_port; dst_port; payload }
  with Wire.R.Truncated -> None

let equal a b =
  a.src_port = b.src_port && a.dst_port = b.dst_port
  &&
  match a.payload, b.payload with
  | Dhcp x, Dhcp y -> Dhcp.equal x y
  | Data x, Data y -> String.equal x y
  | Dhcp _, Data _ | Data _, Dhcp _ -> false

let pp ppf t =
  match t.payload with
  | Dhcp d -> Format.fprintf ppf "udp %d>%d %a" t.src_port t.dst_port Dhcp.pp d
  | Data s ->
    Format.fprintf ppf "udp %d>%d %dB" t.src_port t.dst_port (String.length s)
