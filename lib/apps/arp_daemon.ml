module Y = Yancfs
module P = Packet
module OF = Openflow

let app_name = "arpd"

type t = {
  yfs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  events : App_intf.Packet_in.t;
  mutable replies : int;
  fs_errors : Telemetry.Registry.counter;
}

let create ?(cred = Vfs.Cred.root) yfs =
  { yfs; cred; events = App_intf.Packet_in.create yfs ~cred ~app:app_name;
    replies = 0; fs_errors = App_intf.fs_errors yfs }

let lookup_ip t addr =
  List.find_map
    (fun name ->
      match Y.Yanc_fs.read_host t.yfs ~cred:t.cred name with
      | Ok (mac, Some ip, _) when P.Ipv4_addr.equal ip addr -> Some mac
      | Ok _ | Error _ -> None)
    (Y.Yanc_fs.host_names t.yfs ~cred:t.cred)

let handle t ~switch (ev : Y.Eventdir.event) =
  match Y.Eventdir.frame_of ev with
  | Some ({ P.Eth.payload = P.Eth.Arp ({ op = P.Arp.Request; _ } as arp); _ } as frame)
    -> (
    match lookup_ip t arp.P.Arp.tpa with
    | None -> ()
    | Some mac -> (
      match P.Builder.arp_reply_to frame ~mac with
      | None -> ()
      | Some reply ->
        t.replies <- t.replies + 1;
        App_intf.checked t.fs_errors switch "packet-out"
          (Y.Outdir.submit t.yfs ~cred:t.cred ~switch
             ~actions:[ OF.Action.Output (OF.Action.Physical ev.in_port) ]
             ~data:(P.Eth.to_wire reply) ())))
  | Some _ | None -> ()

let run t ~now:_ =
  List.iter
    (fun switch -> App_intf.Packet_in.drain t.events ~switch (handle t ~switch))
    (Y.Yanc_fs.switch_names t.yfs)

let app t = App_intf.daemon ~name:app_name (fun ~now -> run t ~now)

let replies_sent t = t.replies
