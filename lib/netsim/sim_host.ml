module P = Packet

type ping_result = { dst : P.Ipv4_addr.t; seq : int; rtt : float }

type pending_ping = { pdst : P.Ipv4_addr.t; pseq : int; sent : float }

type t = {
  name : string;
  mac : P.Mac.t;
  mutable ip : P.Ipv4_addr.t option;
  arp : (P.Ipv4_addr.t, P.Mac.t) Hashtbl.t;
  mutable listening : int list;
  mutable awaiting_arp : pending_ping list; (* pings blocked on resolution *)
  mutable in_flight : pending_ping list; (* echo requests sent *)
  mutable results : ping_result list;
  mutable udp_seen : (int * string) list;
  mutable tcp_ok : (int * int) list;
  mutable dhcp_xid : int32 option;
  mutable next_xid : int32;
}

let create ?ip ~name ~mac () =
  { name; mac; ip; arp = Hashtbl.create 16; listening = [];
    awaiting_arp = []; in_flight = []; results = []; udp_seen = [];
    tcp_ok = []; dhcp_xid = None; next_xid = 1l }

let name t = t.name

let mac t = t.mac

let ip t = t.ip

let arp_cache t =
  Hashtbl.fold (fun ip mac acc -> (ip, mac) :: acc) t.arp []
  |> List.sort (fun (a, _) (b, _) -> P.Ipv4_addr.compare a b)

let listen t port = if not (List.mem port t.listening) then t.listening <- port :: t.listening

let my_ip t = Option.value t.ip ~default:P.Ipv4_addr.any

let arp_probe t ~target =
  P.Builder.arp_request ~src_mac:t.mac ~src_ip:(my_ip t) ~target

let echo_request t ~dst ~dst_mac ~seq =
  P.Builder.ping ~src_mac:t.mac ~dst_mac ~src_ip:(my_ip t) ~dst_ip:dst ~id:1
    ~seq

let ping t ~now ~dst ~seq =
  match Hashtbl.find_opt t.arp dst with
  | Some dst_mac ->
    t.in_flight <- { pdst = dst; pseq = seq; sent = now } :: t.in_flight;
    [ echo_request t ~dst ~dst_mac ~seq ]
  | None ->
    t.awaiting_arp <- { pdst = dst; pseq = seq; sent = now } :: t.awaiting_arp;
    [ arp_probe t ~target:dst ]

let dhcp_discover t ~now:_ =
  let xid = t.next_xid in
  t.next_xid <- Int32.add xid 1l;
  t.dhcp_xid <- Some xid;
  let dhcp = P.Dhcp.make ~msg_type:P.Dhcp.Discover ~xid ~chaddr:t.mac () in
  P.Eth.make ~src:t.mac ~dst:P.Mac.broadcast
    (P.Eth.Ipv4
       (P.Ipv4.make ~src:P.Ipv4_addr.any ~dst:P.Ipv4_addr.broadcast
          (P.Ipv4.Udp
             { P.Udp.src_port = P.Dhcp.client_port;
               dst_port = P.Dhcp.server_port;
               payload = P.Udp.Dhcp dhcp })))

let tcp_connect t ~dst_ip ~dst_mac ~src_port ~dst_port =
  P.Builder.tcp_syn ~src_mac:t.mac ~dst_mac ~src_ip:(my_ip t) ~dst_ip ~src_port
    ~dst_port

let ping_results t = List.rev t.results

let received_udp t = List.rev t.udp_seen

let tcp_established t = List.rev t.tcp_ok

let learn t ip mac = Hashtbl.replace t.arp ip mac

(* Frames addressed to us: our MAC, broadcast, or multicast. *)
let addressed_to_us t (frame : P.Eth.t) =
  P.Mac.equal frame.dst t.mac || P.Mac.is_multicast frame.dst

let handle_arp t (frame : P.Eth.t) (arp : P.Arp.t) =
  learn t arp.spa arp.sha;
  match arp.op with
  | P.Arp.Request ->
    if
      match t.ip with
      | Some my -> P.Ipv4_addr.equal arp.tpa my
      | None -> false
    then
      match P.Builder.arp_reply_to frame ~mac:t.mac with
      | Some reply -> [ reply ]
      | None -> []
    else []
  | P.Arp.Reply ->
    (* Unblock pings that were waiting for this resolution. *)
    let ready, still =
      List.partition (fun p -> P.Ipv4_addr.equal p.pdst arp.spa) t.awaiting_arp
    in
    t.awaiting_arp <- still;
    List.map
      (fun p ->
        t.in_flight <- p :: t.in_flight;
        echo_request t ~dst:p.pdst ~dst_mac:arp.sha ~seq:p.pseq)
      ready

let handle_icmp t ~now (frame : P.Eth.t) (ip : P.Ipv4.t) (icmp : P.Icmp.t) =
  match icmp.kind with
  | P.Icmp.Echo_request -> (
    match P.Builder.pong_of frame with Some r -> [ r ] | None -> [])
  | P.Icmp.Echo_reply ->
    let matching, rest =
      List.partition
        (fun p -> p.pseq = icmp.seq && P.Ipv4_addr.equal p.pdst ip.src)
        t.in_flight
    in
    t.in_flight <- rest;
    List.iter
      (fun p ->
        t.results <- { dst = p.pdst; seq = p.pseq; rtt = now -. p.sent } :: t.results)
      matching;
    []

let handle_dhcp t (dhcp : P.Dhcp.t) =
  match t.dhcp_xid with
  | Some xid when Int32.equal xid dhcp.xid && P.Mac.equal dhcp.chaddr t.mac -> begin
    match dhcp.msg_type with
    | P.Dhcp.Offer ->
      let request =
        P.Dhcp.make ~msg_type:P.Dhcp.Request ~xid ~chaddr:t.mac
          ~requested_ip:dhcp.yiaddr ?server_id:dhcp.server_id ()
      in
      [ P.Eth.make ~src:t.mac ~dst:P.Mac.broadcast
          (P.Eth.Ipv4
             (P.Ipv4.make ~src:P.Ipv4_addr.any ~dst:P.Ipv4_addr.broadcast
                (P.Ipv4.Udp
                   { P.Udp.src_port = P.Dhcp.client_port;
                     dst_port = P.Dhcp.server_port;
                     payload = P.Udp.Dhcp request }))) ]
    | P.Dhcp.Ack ->
      t.ip <- Some dhcp.yiaddr;
      t.dhcp_xid <- None;
      []
    | P.Dhcp.Nak ->
      t.dhcp_xid <- None;
      []
    | P.Dhcp.Discover | P.Dhcp.Request -> []
  end
  | _ -> []

let handle_tcp t (ip : P.Ipv4.t) (tcp : P.Tcp.t) =
  let f = tcp.flags in
  if f.P.Tcp.syn && not f.P.Tcp.ack then begin
    if List.mem tcp.dst_port t.listening then begin
      t.tcp_ok <- (tcp.dst_port, tcp.src_port) :: t.tcp_ok;
      let dst_mac =
        Option.value (Hashtbl.find_opt t.arp ip.src) ~default:P.Mac.broadcast
      in
      [ P.Eth.make ~src:t.mac ~dst:dst_mac
          (P.Eth.Ipv4
             (P.Ipv4.make ~src:(my_ip t) ~dst:ip.src
                (P.Ipv4.Tcp
                   (P.Tcp.make ~flags:P.Tcp.syn_ack ~src_port:tcp.dst_port
                      ~dst_port:tcp.src_port ())))) ]
    end
    else []
  end
  else if f.P.Tcp.syn && f.P.Tcp.ack then begin
    (* Our SYN was answered: handshake complete from our side. *)
    t.tcp_ok <- (tcp.dst_port, tcp.src_port) :: t.tcp_ok;
    []
  end
  else []

let receive t ~now (frame : P.Eth.t) =
  if not (addressed_to_us t frame) then []
  else
    match frame.payload with
    | P.Eth.Arp arp -> handle_arp t frame arp
    | P.Eth.Ipv4 ip -> begin
      learn t ip.src frame.src;
      let for_us =
        match t.ip with
        | Some my ->
          P.Ipv4_addr.equal ip.dst my || P.Ipv4_addr.equal ip.dst P.Ipv4_addr.broadcast
        | None -> true (* unconfigured host accepts broadcasts (DHCP) *)
      in
      if not for_us then []
      else
        match ip.payload with
        | P.Ipv4.Icmp icmp -> handle_icmp t ~now frame ip icmp
        | P.Ipv4.Udp { P.Udp.payload = P.Udp.Dhcp dhcp; _ } -> handle_dhcp t dhcp
        | P.Ipv4.Udp { P.Udp.dst_port; payload = P.Udp.Data data; _ } ->
          t.udp_seen <- (dst_port, data) :: t.udp_seen;
          []
        | P.Ipv4.Tcp tcp -> handle_tcp t ip tcp
        | P.Ipv4.Raw _ -> []
    end
    | P.Eth.Lldp _ | P.Eth.Raw _ -> []
