module Y = Yancfs
module P = Packet
module OF = Openflow

let app_name = "routerd"

type t = {
  yfs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  idle_timeout : int;
  priority : int;
  topo : Topo_view.t;
  events : App_intf.Packet_in.t;
  mutable paths : int;
  mutable flow_seq : int;
  fs_errors : Telemetry.Registry.counter;
}

let create ?(cred = Vfs.Cred.root) ?(idle_timeout = 30) ?(priority = 200) yfs =
  { yfs; cred; idle_timeout; priority; topo = Topo_view.create ~cred yfs;
    events = App_intf.Packet_in.create yfs ~cred ~app:app_name; paths = 0;
    flow_seq = 0; fs_errors = App_intf.fs_errors yfs }

(* Publish a host seen on an edge port under hosts/ when the view has
   it elsewhere (or not at all), or when the frame names its address;
   the view reads it back. *)
let learn t ~switch ~in_port frame =
  let mac = frame.P.Eth.src in
  if Topo_view.is_edge t.topo ~switch ~port:in_port && not (P.Mac.is_multicast mac)
  then begin
    let ip =
      match frame.P.Eth.payload with
      | P.Eth.Arp arp -> Some arp.P.Arp.spa
      | P.Eth.Ipv4 ip when not (P.Ipv4_addr.equal ip.P.Ipv4.src P.Ipv4_addr.any) ->
        Some ip.P.Ipv4.src
      | _ -> None
    in
    if Topo_view.(host t.topo mac <> Some { switch; port = in_port }) || ip <> None
    then begin
      let name = Printf.sprintf "host-%012x" (P.Mac.to_int mac) in
      App_intf.checked t.fs_errors name "host"
        (Y.Yanc_fs.upsert_host t.yfs ~cred:t.cred ~name ~mac ~ip
           ~attached_to:(switch, in_port) ())
    end
  end

(* Deliver a frame to every edge port in the network except its ingress:
   loop-free broadcast on arbitrary topologies. *)
let broadcast t ~ingress ~data ~buffer_id =
  List.iter
    (fun switch ->
      let ports =
        List.filter
          (fun port ->
            ingress <> Some Topo_view.{ switch; port }
            && Topo_view.port_up t.topo ~switch ~port)
          (Topo_view.edge_ports t.topo switch)
      in
      if ports <> [] then begin
        let actions =
          List.map (fun p -> OF.Action.Output (OF.Action.Physical p)) ports
        in
        (* The ingress switch may hold the frame in a buffer. *)
        let buffer_id =
          match ingress, buffer_id with
          | Some Topo_view.{ switch = isw; _ }, Some id when isw = switch -> Some id
          | _ -> None
        in
        App_intf.checked t.fs_errors switch "packet-out"
          (Y.Outdir.submit t.yfs ~cred:t.cred ~switch
             ?buffer_id ~actions
             ~data:(if buffer_id = None then data else "")
             ())
      end)
    (Topo_view.switches t.topo)

let install_path t ~headers ~(ingress : Topo_view.location)
    ~(dst_loc : Topo_view.location) ~buffer_id ~data =
  match
    Topo_view.path t.topo ~pick:(fun _ hops -> hops.(0)) ~from_sw:ingress.switch
      ~dst_sw:dst_loc.switch
  with
  | None ->
    (* Fabric not discovered yet: fall back to broadcast delivery. *)
    broadcast t ~ingress:(Some ingress) ~data ~buffer_id
  | Some hops ->
    t.paths <- t.paths + 1;
    let name () =
      t.flow_seq <- t.flow_seq + 1;
      Printf.sprintf "path-%d" t.flow_seq
    in
    Path_install.install t.yfs ~cred:t.cred ~fs_errors:t.fs_errors ~name
      ~priority:t.priority ~idle_timeout:t.idle_timeout ~headers ~ingress
      ~dst_loc ~buffer_id ~data hops

let handle_frame t ~switch (ev : Y.Eventdir.event) =
  match Y.Eventdir.frame_of ev with
  | None -> ()
  | Some frame -> (
    match frame.P.Eth.payload with
    | P.Eth.Lldp _ -> ()
    | _ ->
      learn t ~switch ~in_port:ev.in_port frame;
      let ingress = Topo_view.{ switch; port = ev.in_port } in
      let dst = frame.P.Eth.dst in
      if P.Mac.is_multicast dst then
        broadcast t ~ingress:(Some ingress) ~data:ev.data ~buffer_id:ev.buffer_id
      else
        match Topo_view.host t.topo dst with
        | Some dst_loc ->
          let headers = P.Headers.of_eth ~in_port:ev.in_port frame in
          install_path t ~headers ~ingress ~dst_loc ~buffer_id:ev.buffer_id
            ~data:ev.data
        | None ->
          broadcast t ~ingress:(Some ingress) ~data:ev.data
            ~buffer_id:ev.buffer_id)

let handle t ~switch (ev : Y.Eventdir.event) =
  let tracer = Telemetry.tracer (Y.Yanc_fs.telemetry t.yfs) in
  (* Pick the publishing driver's trace back up by sequence number. *)
  ignore (Telemetry.Tracer.resume tracer (Y.Layout.trace_key_event ev.seq));
  Telemetry.Tracer.span tracer ~stage:"app.routerd" (fun () ->
      handle_frame t ~switch ev)

let run t ~now:_ =
  List.iter
    (fun switch -> App_intf.Packet_in.drain t.events ~switch (handle t ~switch))
    (Topo_view.switches t.topo)

let app t = App_intf.daemon ~name:app_name (fun ~now -> run t ~now)

let paths_installed t = t.paths

let hosts_tracked t = List.length (Topo_view.hosts t.topo)
