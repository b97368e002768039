module Y = Yancfs
module P = Packet
module OF = Openflow

let app_name = "topologyd"

type t = {
  yfs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  probe_interval : float;
  ttl : float;
  mutable last_probe : float;
  prepared : (string, unit) Hashtbl.t; (* switches with the LLDP flow *)
  events : App_intf.Packet_in.t;
  last_seen : (string * int, float * (string * int)) Hashtbl.t;
      (* (rx switch, rx port) -> (time, (tx switch, tx port)) *)
  fs_errors : Telemetry.Registry.counter;
  view : Topo_view.t;
}

let create ?(probe_interval = 1.0) ?ttl ?(cred = Vfs.Cred.root) yfs =
  let ttl = Option.value ttl ~default:(3. *. probe_interval) in
  { yfs; cred; probe_interval; ttl; last_probe = neg_infinity;
    prepared = Hashtbl.create 16;
    events = App_intf.Packet_in.create yfs ~cred ~app:app_name;
    last_seen = Hashtbl.create 64; fs_errors = App_intf.fs_errors yfs;
    view = Topo_view.create ~cred yfs }

let lldp_flow =
  { Y.Flowdir.default with
    Y.Flowdir.of_match =
      { OF.Of_match.any with OF.Of_match.dl_type = Some P.Lldp.ethertype };
    actions = [ OF.Action.Output (OF.Action.Controller 0) ];
    priority = 0xffff }

let prepare_switch t switch =
  if not (Hashtbl.mem t.prepared switch) then
    match
      Y.Yanc_fs.create_flow t.yfs ~cred:t.cred ~switch ~name:"lldp" lldp_flow
    with
    | Ok () | Error Vfs.Errno.EEXIST -> Hashtbl.replace t.prepared switch ()
    | Error e ->
      App_intf.fs_failed t.fs_errors switch "lldp flow" (Vfs.Errno.message e)

let probe t switch =
  match Y.Yanc_fs.switch_dpid t.yfs switch with
  | None -> ()
  | Some dpid ->
    List.iter
      (fun port_no ->
        match Y.Yanc_fs.read_port t.yfs ~cred:t.cred ~switch port_no with
        | Error _ -> ()
        | Ok info ->
          if not (info.admin_down || info.link_down) then begin
            let frame =
              P.Builder.lldp ~src_mac:info.hw_addr ~dpid ~port:port_no
            in
            App_intf.checked t.fs_errors switch "lldp probe"
              (Y.Outdir.submit t.yfs ~cred:t.cred ~switch
                 ~actions:[ OF.Action.Output (OF.Action.Physical port_no) ]
                 ~data:(P.Eth.to_wire frame) ())
          end)
      (Y.Yanc_fs.port_numbers t.yfs ~cred:t.cred switch)

let set_peer t ~switch ~port peer =
  App_intf.checked t.fs_errors switch "peer"
    (Y.Yanc_fs.set_peer t.yfs ~cred:t.cred ~switch ~port ~peer)

let handle_events t ~now switch =
  App_intf.Packet_in.drain t.events ~switch (fun (ev : Y.Eventdir.event) ->
      match Y.Eventdir.frame_of ev with
      | Some { P.Eth.payload = P.Eth.Lldp lldp; _ } ->
        let tx_switch = Y.Yanc_fs.switch_name_of_dpid lldp.chassis_id in
        let key = switch, ev.in_port in
        let fresh = tx_switch, lldp.port_id in
        let previous = Hashtbl.find_opt t.last_seen key in
        Hashtbl.replace t.last_seen key (now, fresh);
        (match previous with
        | Some (_, old) when old = fresh -> () (* unchanged: refresh only *)
        | Some _ | None -> set_peer t ~switch ~port:ev.in_port (Some fresh))
      | Some _ | None -> ())

let expire t ~now =
  let dead =
    Hashtbl.fold
      (fun key (seen, _) acc -> if now -. seen > t.ttl then key :: acc else acc)
      t.last_seen []
  in
  List.iter
    (fun ((switch, port) as key) ->
      Hashtbl.remove t.last_seen key;
      set_peer t ~switch ~port None)
    dead

let run t ~now =
  let switches = Y.Yanc_fs.switch_names t.yfs in
  List.iter (prepare_switch t) switches;
  List.iter (handle_events t ~now) switches;
  if now -. t.last_probe >= t.probe_interval then begin
    t.last_probe <- now;
    List.iter (probe t) switches;
    expire t ~now
  end

let app t = App_intf.daemon ~name:app_name (fun ~now -> run t ~now)

let links t =
  List.concat_map
    (fun switch ->
      List.filter_map
        (fun (h : Topo_view.hop) ->
          let a = switch, h.out_port and b = h.peer, h.peer_in in
          if a <= b then Some (a, b) else None)
        (Topo_view.links t.view switch))
    (Topo_view.switches t.view)
  |> List.sort compare
