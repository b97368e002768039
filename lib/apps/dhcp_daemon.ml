module Y = Yancfs
module P = Packet
module OF = Openflow

let app_name = "dhcpd"

type t = {
  yfs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  server_ip : P.Ipv4_addr.t;
  server_mac : P.Mac.t;
  mutable pool : P.Ipv4_addr.t list;
  leased : (P.Mac.t, P.Ipv4_addr.t) Hashtbl.t;
  offered : (P.Mac.t, P.Ipv4_addr.t) Hashtbl.t;
  events : App_intf.Packet_in.t;
  fs_errors : Telemetry.Registry.counter;
}

let default_ip = Option.get (P.Ipv4_addr.of_string "10.0.255.254")

let create ?(cred = Vfs.Cred.root) ?(server_ip = default_ip)
    ?(server_mac = P.Mac.of_int 0x02ffffffff01) ~pool yfs =
  { yfs; cred; server_ip; server_mac; pool; leased = Hashtbl.create 32;
    offered = Hashtbl.create 32;
    events = App_intf.Packet_in.create yfs ~cred ~app:app_name;
    fs_errors = App_intf.fs_errors yfs }

let reply_frame t ~(dhcp : P.Dhcp.t) =
  P.Eth.make ~src:t.server_mac ~dst:dhcp.chaddr
    (P.Eth.Ipv4
       (P.Ipv4.make ~src:t.server_ip ~dst:P.Ipv4_addr.broadcast
          (P.Ipv4.Udp
             { P.Udp.src_port = P.Dhcp.server_port;
               dst_port = P.Dhcp.client_port;
               payload = P.Udp.Dhcp dhcp })))

let netmask = Option.get (P.Ipv4_addr.of_string "255.255.0.0")

let offer_for t mac =
  match Hashtbl.find_opt t.leased mac with
  | Some ip -> Some ip
  | None -> (
    match Hashtbl.find_opt t.offered mac with
    | Some ip -> Some ip
    | None -> (
      match t.pool with
      | [] -> None
      | ip :: rest ->
        t.pool <- rest;
        Hashtbl.replace t.offered mac ip;
        Some ip))

let handle t ~switch (ev : Y.Eventdir.event) =
  match Y.Eventdir.frame_of ev with
  | Some
      { P.Eth.payload =
          P.Eth.Ipv4 { P.Ipv4.payload = P.Ipv4.Udp { P.Udp.payload = P.Udp.Dhcp dhcp; _ }; _ };
        _ } -> (
    let send reply =
      App_intf.checked t.fs_errors switch "packet-out"
        (Y.Outdir.submit t.yfs ~cred:t.cred ~switch
           ~actions:[ OF.Action.Output (OF.Action.Physical ev.in_port) ]
           ~data:(P.Eth.to_wire (reply_frame t ~dhcp:reply)) ())
    in
    match dhcp.P.Dhcp.msg_type with
    | P.Dhcp.Discover -> (
      match offer_for t dhcp.chaddr with
      | None -> () (* pool exhausted: stay silent, client retries *)
      | Some ip ->
        send
          (P.Dhcp.make ~msg_type:P.Dhcp.Offer ~xid:dhcp.xid ~chaddr:dhcp.chaddr
             ~yiaddr:ip ~siaddr:t.server_ip ~server_id:t.server_ip
             ~lease:86400l ~netmask ()))
    | P.Dhcp.Request -> (
      let requested =
        match dhcp.requested_ip with
        | Some ip -> Some ip
        | None -> Hashtbl.find_opt t.offered dhcp.chaddr
      in
      match requested, Hashtbl.find_opt t.offered dhcp.chaddr with
      | Some ip, Some offered_ip when P.Ipv4_addr.equal ip offered_ip ->
        Hashtbl.remove t.offered dhcp.chaddr;
        Hashtbl.replace t.leased dhcp.chaddr ip;
        let name = Printf.sprintf "host-%012x" (P.Mac.to_int dhcp.chaddr) in
        App_intf.checked t.fs_errors name "host"
          (Y.Yanc_fs.upsert_host t.yfs ~cred:t.cred ~name ~mac:dhcp.chaddr
             ~ip:(Some ip) ());
        send
          (P.Dhcp.make ~msg_type:P.Dhcp.Ack ~xid:dhcp.xid ~chaddr:dhcp.chaddr
             ~yiaddr:ip ~siaddr:t.server_ip ~server_id:t.server_ip
             ~lease:86400l ~netmask ())
      | Some ip, _ when Hashtbl.find_opt t.leased dhcp.chaddr = Some ip ->
        send
          (P.Dhcp.make ~msg_type:P.Dhcp.Ack ~xid:dhcp.xid ~chaddr:dhcp.chaddr
             ~yiaddr:ip ~siaddr:t.server_ip ~server_id:t.server_ip
             ~lease:86400l ~netmask ())
      | _ ->
        send
          (P.Dhcp.make ~msg_type:P.Dhcp.Nak ~xid:dhcp.xid ~chaddr:dhcp.chaddr
             ~server_id:t.server_ip ()))
    | P.Dhcp.Offer | P.Dhcp.Ack | P.Dhcp.Nak -> ())
  | Some _ | None -> ()

let run t ~now:_ =
  List.iter
    (fun switch -> App_intf.Packet_in.drain t.events ~switch (handle t ~switch))
    (Y.Yanc_fs.switch_names t.yfs)

let app t = App_intf.daemon ~name:app_name (fun ~now -> run t ~now)

let leases t =
  Hashtbl.fold (fun mac ip acc -> (mac, ip) :: acc) t.leased []
  |> List.sort (fun (a, _) (b, _) -> P.Mac.compare a b)
