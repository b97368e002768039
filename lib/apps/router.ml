module Y = Yancfs
module P = Packet
module OF = Openflow

let app_name = "routerd"

type location = Path_install.location = { switch : string; port : int }

type t = {
  yfs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  idle_timeout : int;
  priority : int;
  hosts : (P.Mac.t, location) Hashtbl.t;
  ips : (P.Ipv4_addr.t, P.Mac.t) Hashtbl.t;
  subscribed : (string, unit) Hashtbl.t;
  mutable paths : int;
  mutable flow_seq : int;
  fs_errors : Telemetry.Registry.counter;
}

let create ?(cred = Vfs.Cred.root) ?(idle_timeout = 30) ?(priority = 200) yfs =
  { yfs; cred; idle_timeout; priority; hosts = Hashtbl.create 64;
    ips = Hashtbl.create 64; subscribed = Hashtbl.create 16; paths = 0;
    flow_seq = 0; fs_errors = App_intf.fs_errors yfs }

let fs t = Y.Yanc_fs.fs t.yfs

let root t = Y.Yanc_fs.root t.yfs

let edge_ports t switch =
  List.filter
    (fun port ->
      Y.Yanc_fs.peer_of t.yfs ~cred:t.cred ~switch ~port = None
      &&
      match Y.Yanc_fs.read_port t.yfs ~cred:t.cred ~switch port with
      | Ok info -> not (info.admin_down || info.link_down)
      | Error _ -> false)
    (Y.Yanc_fs.port_numbers t.yfs ~cred:t.cred switch)

(* BFS shortest path over the peer symlinks, as the hops leaving each
   switch on the way. *)
let path t ~from_sw ~to_sw =
  if from_sw = to_sw then Some []
  else begin
    let adj = Path_install.adjacency t.yfs ~cred:t.cred in
    let visited = Hashtbl.create 16 in
    let queue = Queue.create () in
    Hashtbl.replace visited from_sw None;
    Queue.push from_sw queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let sw = Queue.pop queue in
      if sw = to_sw then found := true
      else
        List.iter
          (fun (h : Path_install.hop) ->
            if not (Hashtbl.mem visited h.peer) then begin
              Hashtbl.replace visited h.peer (Some (sw, h));
              Queue.push h.peer queue
            end)
          (Hashtbl.find_all adj sw)
    done;
    if not !found then None
    else begin
      (* Walk back from the destination. *)
      let rec back sw acc =
        match Hashtbl.find visited sw with
        | None -> acc
        | Some (prev, h) -> back prev (h :: acc)
      in
      Some (back to_sw [])
    end
  end

let learn t ~switch ~in_port frame =
  (* Only edge ports host endpoints. *)
  if Y.Yanc_fs.peer_of t.yfs ~cred:t.cred ~switch ~port:in_port = None then begin
    let mac = frame.P.Eth.src in
    if not (P.Mac.is_multicast mac) then begin
      let known = Hashtbl.find_opt t.hosts mac in
      Hashtbl.replace t.hosts mac { switch; port = in_port };
      let ip =
        match frame.P.Eth.payload with
        | P.Eth.Arp arp -> Some arp.P.Arp.spa
        | P.Eth.Ipv4 ip when not (P.Ipv4_addr.equal ip.P.Ipv4.src P.Ipv4_addr.any)
          -> Some ip.P.Ipv4.src
        | _ -> None
      in
      Option.iter (fun addr -> Hashtbl.replace t.ips addr mac) ip;
      if known = None || ip <> None then begin
        let name =
          Printf.sprintf "host-%012x" (P.Mac.to_int mac)
        in
        ignore
          (Y.Yanc_fs.upsert_host t.yfs ~cred:t.cred ~name ~mac ~ip
             ~attached_to:(switch, in_port) ())
      end
    end
  end

(* Deliver a frame to every edge port in the network except its ingress:
   loop-free broadcast on arbitrary topologies. *)
let broadcast t ~ingress ~data ~buffer_id =
  List.iter
    (fun switch ->
      let ports =
        List.filter
          (fun port -> ingress <> Some { switch; port })
          (edge_ports t switch)
      in
      if ports <> [] then begin
        let actions =
          List.map (fun p -> OF.Action.Output (OF.Action.Physical p)) ports
        in
        (* The ingress switch may hold the frame in a buffer. *)
        let buffer_id =
          match ingress, buffer_id with
          | Some { switch = isw; _ }, Some id when isw = switch -> Some id
          | _ -> None
        in
        ignore
          (Y.Outdir.submit (fs t) ~cred:t.cred ~root:(root t) ~switch
             ?buffer_id ~actions
             ~data:(if buffer_id = None then data else "")
             ())
      end)
    (Y.Yanc_fs.switch_names t.yfs)

let install_path t ~headers ~ingress ~dst_loc ~buffer_id ~data =
  match path t ~from_sw:ingress.switch ~to_sw:dst_loc.switch with
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
      let ingress = { switch; port = ev.in_port } in
      let dst = frame.P.Eth.dst in
      if P.Mac.is_multicast dst then
        broadcast t ~ingress:(Some ingress) ~data:ev.data ~buffer_id:ev.buffer_id
      else
        match Hashtbl.find_opt t.hosts dst with
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
    (fun switch ->
      if not (Hashtbl.mem t.subscribed switch) then begin
        match
          Y.Eventdir.subscribe (fs t) ~cred:t.cred ~root:(root t) ~switch
            ~app:app_name
        with
        | Ok () -> Hashtbl.replace t.subscribed switch ()
        | Error _ -> ()
      end;
      List.iter (handle t ~switch)
        (Y.Eventdir.consume (fs t) ~cred:t.cred ~root:(root t) ~switch
           ~app:app_name))
    (Y.Yanc_fs.switch_names t.yfs)

let app t = App_intf.daemon ~name:app_name (fun ~now -> run t ~now)

let paths_installed t = t.paths

let hosts_tracked t = Hashtbl.length t.hosts
