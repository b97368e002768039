type vlan = { vid : int; pcp : int }

type payload =
  | Arp of Arp.t
  | Ipv4 of Ipv4.t
  | Lldp of Lldp.t
  | Raw of int * string

type t = {
  src : Mac.t;
  dst : Mac.t;
  vlan : vlan option;
  payload : payload;
}

let vlan_tpid = 0x8100

let make ?vlan ~src ~dst payload = { src; dst; vlan; payload }

let ethertype t =
  match t.payload with
  | Arp _ -> Arp.ethertype
  | Ipv4 _ -> Ipv4.ethertype
  | Lldp _ -> Lldp.ethertype
  | Raw (ty, _) -> ty

let payload_wire t =
  match t.payload with
  | Arp x -> Arp.to_wire x
  | Ipv4 x -> Ipv4.to_wire x
  | Lldp x -> Lldp.to_wire x
  | Raw (_, body) -> body

let to_wire t =
  let w = Wire.W.create ~size:64 () in
  Wire.W.string w (Mac.to_octets t.dst);
  Wire.W.string w (Mac.to_octets t.src);
  (match t.vlan with
  | Some { vid; pcp } ->
    Wire.W.u16 w vlan_tpid;
    Wire.W.u16 w (((pcp land 7) lsl 13) lor (vid land 0xfff))
  | None -> ());
  Wire.W.u16 w (ethertype t);
  Wire.W.string w (payload_wire t);
  Wire.W.contents w

let of_wire s =
  try
    let r = Wire.R.of_string s in
    let dst = Mac.of_octets (Wire.R.bytes r 6) in
    let src = Mac.of_octets (Wire.R.bytes r 6) in
    let ty = Wire.R.u16 r in
    let vlan, ty =
      if ty = vlan_tpid then begin
        let tci = Wire.R.u16 r in
        Some { vid = tci land 0xfff; pcp = tci lsr 13 }, Wire.R.u16 r
      end
      else None, ty
    in
    let body = Wire.R.rest r in
    let payload =
      if ty = Arp.ethertype then
        match Arp.of_wire body with Some x -> Arp x | None -> Raw (ty, body)
      else if ty = Ipv4.ethertype then
        match Ipv4.of_wire body with Some x -> Ipv4 x | None -> Raw (ty, body)
      else if ty = Lldp.ethertype then
        match Lldp.of_wire body with Some x -> Lldp x | None -> Raw (ty, body)
      else Raw (ty, body)
    in
    Some { src; dst; vlan; payload }
  with Wire.R.Truncated -> None

let size t = String.length (to_wire t)

let equal a b =
  Mac.equal a.src b.src && Mac.equal a.dst b.dst && a.vlan = b.vlan
  &&
  match a.payload, b.payload with
  | Arp x, Arp y -> Arp.equal x y
  | Ipv4 x, Ipv4 y -> Ipv4.equal x y
  | Lldp x, Lldp y -> Lldp.equal x y
  | Raw (p, x), Raw (q, y) -> p = q && String.equal x y
  | (Arp _ | Ipv4 _ | Lldp _ | Raw _), _ -> false

let pp ppf t =
  Format.fprintf ppf "%a > %a%s " Mac.pp t.src Mac.pp t.dst
    (match t.vlan with
    | Some { vid; _ } -> Printf.sprintf " vlan=%d" vid
    | None -> "");
  match t.payload with
  | Arp x -> Arp.pp ppf x
  | Ipv4 x -> Ipv4.pp ppf x
  | Lldp x -> Lldp.pp ppf x
  | Raw (ty, body) ->
    Format.fprintf ppf "ethertype=0x%04x %dB" ty (String.length body)
