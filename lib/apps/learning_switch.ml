module Y = Yancfs
module P = Packet
module OF = Openflow

let app_name = "l2-learnd"

type t = {
  yfs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  idle_timeout : int;
  tables : (string, (P.Mac.t, int) Hashtbl.t) Hashtbl.t;
  subscribed : (string, unit) Hashtbl.t;
  mutable flow_seq : int;
  fs_errors : Telemetry.Registry.counter;
}

let create ?(cred = Vfs.Cred.root) ?(idle_timeout = 60) yfs =
  { yfs; cred; idle_timeout; tables = Hashtbl.create 16;
    subscribed = Hashtbl.create 16; flow_seq = 0;
    fs_errors = App_intf.fs_errors yfs }

let fs t = Y.Yanc_fs.fs t.yfs

let root t = Y.Yanc_fs.root t.yfs

let table_for t switch =
  match Hashtbl.find_opt t.tables switch with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 32 in
    Hashtbl.replace t.tables switch tbl;
    tbl

let install_flow t ~switch ~dst ~out_port ~buffer_id =
  t.flow_seq <- t.flow_seq + 1;
  let name = Printf.sprintf "learned-%d" t.flow_seq in
  let flow =
    { Y.Flowdir.default with
      Y.Flowdir.of_match = { OF.Of_match.any with OF.Of_match.dl_dst = Some dst };
      actions = [ OF.Action.Output (OF.Action.Physical out_port) ];
      priority = 100;
      idle_timeout = t.idle_timeout;
      buffer_id }
  in
  App_intf.checked t.fs_errors switch "flow"
    (Y.Yanc_fs.create_flow t.yfs ~cred:t.cred ~switch ~name flow)

let handle_frame t ~switch (ev : Y.Eventdir.event) =
  match Y.Eventdir.frame_of ev with
  | None -> ()
  | Some frame ->
    (* LLDP belongs to the topology daemon. *)
    if frame.P.Eth.payload = P.Eth.Raw (0, "") then ()
    else begin
      match frame.P.Eth.payload with
      | P.Eth.Lldp _ -> ()
      | _ ->
        let tbl = table_for t switch in
        if not (P.Mac.is_multicast frame.P.Eth.src) then
          Hashtbl.replace tbl frame.P.Eth.src ev.in_port;
        let dst = frame.P.Eth.dst in
        (match Hashtbl.find_opt tbl dst with
        | Some out_port when not (P.Mac.is_multicast dst) ->
          install_flow t ~switch ~dst ~out_port ~buffer_id:ev.buffer_id;
          (* An unbuffered capture still needs the packet delivered. *)
          if ev.buffer_id = None then
            ignore
              (Y.Outdir.submit (fs t) ~cred:t.cred ~root:(root t) ~switch
                 ~in_port:ev.in_port
                 ~actions:[ OF.Action.Output (OF.Action.Physical out_port) ]
                 ~data:ev.data ())
        | Some _ | None ->
          ignore
            (Y.Outdir.submit (fs t) ~cred:t.cred ~root:(root t) ~switch
               ?buffer_id:ev.buffer_id ~in_port:ev.in_port
               ~actions:[ OF.Action.Output OF.Action.Flood ]
               ~data:(if ev.buffer_id = None then ev.data else "")
               ()))
    end

let handle_packet_in t ~switch (ev : Y.Eventdir.event) =
  let tracer = Telemetry.tracer (Y.Yanc_fs.telemetry t.yfs) in
  ignore (Telemetry.Tracer.resume tracer (Y.Layout.trace_key_event ev.seq));
  Telemetry.Tracer.span tracer ~stage:"app.l2-learnd" (fun () ->
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
      List.iter
        (handle_packet_in t ~switch)
        (Y.Eventdir.consume (fs t) ~cred:t.cred ~root:(root t) ~switch
           ~app:app_name))
    (Y.Yanc_fs.switch_names t.yfs)

let app t = App_intf.daemon ~name:app_name (fun ~now -> run t ~now)

let macs_learned t =
  Hashtbl.fold (fun _ tbl acc -> acc + Hashtbl.length tbl) t.tables 0
