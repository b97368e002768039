module Y = Yancfs
module P = Packet
module OF = Openflow
module App_intf = Apps.App_intf

type config = {
  view : string;
  switches : (string * int list) list;
  flowspace : OF.Of_match.t;
  priority_cap : int;
}

type t = {
  master : Y.Yanc_fs.t;
  view_fs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  config : config;
  synced : (string * string, int) Hashtbl.t; (* (switch, view flow) -> version *)
  events : App_intf.Packet_in.t;
  mutable accepted : int;
  mutable rejected : int;
  fs_errors : Telemetry.Registry.counter;
}

let ( let* ) = Result.bind

let who t = "slicer-" ^ t.config.view

let checked t what r = App_intf.checked t.fs_errors (who t) what r

let allowed_ports t switch =
  match List.assoc_opt switch t.config.switches with
  | Some [] | None ->
    Y.Yanc_fs.port_numbers t.master ~cred:t.cred switch
  | Some ports -> ports

let sliced_switches t = List.map fst t.config.switches

let mirror_switch t switch ports =
  (match Y.Yanc_fs.switch_dpid t.master switch with
  | None -> ()
  | Some dpid ->
    checked t switch
      (Y.Yanc_fs.add_switch t.view_fs ~name:switch ~dpid
         ~protocol:
           (Option.value (Y.Yanc_fs.switch_protocol t.master switch)
              ~default:"unknown")
         ~n_buffers:0 ~n_tables:1 ~capabilities:[ "sliced" ] ~actions:[]));
  let ports = if ports = [] then allowed_ports t switch else ports in
  List.iter
    (fun port ->
      match Y.Yanc_fs.read_port t.master ~cred:t.cred ~switch port with
      | Ok info ->
        checked t (switch ^ " port") (Y.Yanc_fs.set_port t.view_fs ~switch info)
      | Error _ -> ())
    ports;
  App_intf.Packet_in.subscribe t.events ~switch

let create ?(cred = Vfs.Cred.root) ~master config =
  let* view_fs = Y.Yanc_fs.in_view master ~cred config.view in
  let t =
    { master; view_fs; cred; config; synced = Hashtbl.create 64;
      events =
        App_intf.Packet_in.create master ~cred ~app:("slice-" ^ config.view);
      accepted = 0; rejected = 0; fs_errors = App_intf.fs_errors master }
  in
  List.iter (fun (sw, ports) -> mirror_switch t sw ports) config.switches;
  Ok t

let view_fs t = t.view_fs

(* --- topology mirroring ------------------------------------------------------- *)

let in_slice t switch port =
  List.exists
    (fun (sw, ports) -> sw = switch && (ports = [] || List.mem port ports))
    t.config.switches

let mirror_topology t =
  List.iter
    (fun (switch, ports) ->
      let ports = if ports = [] then allowed_ports t switch else ports in
      List.iter
        (fun port ->
          let master_peer = Y.Yanc_fs.peer_of t.master ~cred:t.cred ~switch ~port in
          let view_peer = Y.Yanc_fs.peer_of t.view_fs ~cred:t.cred ~switch ~port in
          let wanted =
            match master_peer with
            | Some (psw, pport) when in_slice t psw pport -> Some (psw, pport)
            | Some _ | None -> None
          in
          if wanted <> view_peer then
            checked t (switch ^ " peer")
              (Y.Yanc_fs.set_peer t.view_fs ~cred:t.cred ~switch ~port
                 ~peer:wanted))
        ports)
    t.config.switches

(* --- downward flow sync --------------------------------------------------------- *)

let master_flow_name t view_flow = Printf.sprintf "s.%s.%s" t.config.view view_flow

(* Rewrite outputs through the slice's port filter. [Flood]/[All] become
   explicit outputs on every allowed port; a physical port outside the
   slice is a violation. *)
let translate_actions t switch actions =
  let allowed = allowed_ports t switch in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | OF.Action.Output (OF.Action.Physical p) :: rest ->
      if List.mem p allowed then go (OF.Action.Output (OF.Action.Physical p) :: acc) rest
      else Error (Printf.sprintf "output port %d outside slice" p)
    | (OF.Action.Enqueue { port; _ } as a) :: rest ->
      if List.mem port allowed then go (a :: acc) rest
      else Error (Printf.sprintf "enqueue port %d outside slice" port)
    | OF.Action.Output (OF.Action.Flood | OF.Action.All) :: rest ->
      let outs =
        List.map (fun p -> OF.Action.Output (OF.Action.Physical p)) allowed
      in
      go (List.rev_append outs acc) rest
    | a :: rest -> go (a :: acc) rest
  in
  go [] actions

(* [vflows]: the handle on the view switch's flows/ directory the poll
   reads every version through; a flow is opened only when stale. *)
let sync_flow_down t switch vflows view_flow =
  let vfs = Y.Yanc_fs.fs t.view_fs in
  match Y.Flowdir.read_version ~flow:view_flow vfs ~cred:t.cred vflows with
  | None -> ()
  | Some version -> (
    let key = switch, view_flow in
    let stale =
      match Hashtbl.find_opt t.synced key with
      | Some v -> v < version
      | None -> true
    in
    if stale then
      match Y.Yanc_fs.open_flow t.view_fs ~cred:t.cred ~switch view_flow with
      | Error _ -> ()
      | Ok vdir -> (
        Hashtbl.replace t.synced key version;
        let confine (flow : Y.Flowdir.t) =
          let enforced = OF.Of_match.intersect flow.of_match t.config.flowspace in
          match enforced, translate_actions t switch flow.actions with
          | None, _ -> Error "match outside the slice flowspace"
          | _, Error e -> Error e
          | Some of_match, Ok actions ->
            Ok
              { flow with
                Y.Flowdir.of_match;
                actions;
                priority = min flow.priority t.config.priority_cap;
                version = 0;
                buffer_id = None }
        in
        let verdict, report =
          Y.Flowdir.read_reporting vfs ~cred:t.cred vdir confine
        in
        checked t (switch ^ "/" ^ view_flow ^ " error") report;
        match verdict with
        | Error _ -> t.rejected <- t.rejected + 1
        | Ok mflow -> (
          t.accepted <- t.accepted + 1;
          let target = master_flow_name t view_flow in
          match
            Y.Yanc_fs.upsert_flow t.master ~cred:t.cred ~switch ~name:target
              mflow
          with
          | Ok () -> ()
          | Error e ->
            App_intf.fs_failed t.fs_errors (who t) (switch ^ "/" ^ target) e)))

let sync_deletions t switch =
  let live = Y.Yanc_fs.flow_names t.view_fs ~cred:t.cred switch in
  let gone =
    Hashtbl.fold
      (fun (sw, name) _ acc ->
        if sw = switch && not (List.mem name live) then name :: acc else acc)
      t.synced []
  in
  List.iter
    (fun name ->
      Hashtbl.remove t.synced (switch, name);
      let target = master_flow_name t name in
      match Y.Yanc_fs.delete_flow t.master ~cred:t.cred ~switch target with
      | Error Vfs.Errno.ENOENT -> () (* already gone, e.g. timed out *)
      | r -> checked t (switch ^ "/" ^ target) r)
    gone

(* --- upward sync ------------------------------------------------------------------ *)

let sync_events_up t switch =
  App_intf.Packet_in.drain t.events ~switch (fun (ev : Y.Eventdir.event) ->
      if in_slice t switch ev.in_port then begin
        match Y.Eventdir.frame_of ev with
        | None -> ()
        | Some frame ->
          let headers = P.Headers.of_eth ~in_port:ev.in_port frame in
          if OF.Of_match.matches t.config.flowspace headers then
            ignore
              (Y.Eventdir.publish (Y.Yanc_fs.fs t.view_fs)
                 ~root:(Y.Yanc_fs.root t.view_fs) ~switch ~in_port:ev.in_port
                 ~reason:ev.reason ~buffer_id:None ~total_len:ev.total_len
                 ~data:ev.data)
      end)

(* Each side's flows/ directory is opened once, on the first synced
   flow of [switch], and every counter file read or written through it. *)
let sync_counters_up t switch =
  let mfs = Y.Yanc_fs.fs t.master in
  let vfs = Y.Yanc_fs.fs t.view_fs in
  let mflows = lazy (Y.Yanc_fs.open_flows t.master ~cred:t.cred switch) in
  let vflows = lazy (Y.Yanc_fs.open_flows t.view_fs ~cred:t.cred switch) in
  Hashtbl.iter
    (fun (sw, name) _ ->
      if sw = switch then
        match
          Result.map
            (Y.Flowdir.read_counters ~flow:(master_flow_name t name) mfs
               ~cred:t.cred)
            (Lazy.force mflows)
        with
        | Ok (Some (packets, bytes)) ->
          checked t (switch ^ "/" ^ name ^ " counters")
            (Result.bind (Lazy.force vflows) (fun vflows ->
                 Y.Flowdir.write_counters ~flow:name vfs ~cred:t.cred vflows
                   ~packets ~bytes ~duration_s:0))
        | Ok None | Error _ -> ())
    t.synced

let sync_packet_out t switch =
  List.iter
    (fun (req : Y.Outdir.request) ->
      match translate_actions t switch req.actions with
      | Error _ -> () (* dropped: tenant tried to leave the slice *)
      | Ok actions ->
        checked t (switch ^ " packet-out")
          (Y.Outdir.submit (Y.Yanc_fs.fs t.master) ~cred:t.cred
             ~root:(Y.Yanc_fs.root t.master) ~switch ?in_port:req.in_port
             ~actions ~data:req.data ()))
    (Y.Outdir.consume (Y.Yanc_fs.fs t.view_fs)
       ~root:(Y.Yanc_fs.root t.view_fs) ~switch
       ~on_error:(fun e -> checked t (switch ^ " packet-out rmdir") (Error e)))

let run t ~now:_ =
  mirror_topology t;
  List.iter
    (fun switch ->
      (match Y.Yanc_fs.open_flows t.view_fs ~cred:t.cred switch with
      | Ok vflows ->
        List.iter (sync_flow_down t switch vflows)
          (Y.Yanc_fs.flow_names t.view_fs ~cred:t.cred switch)
      | Error _ -> ());
      sync_deletions t switch;
      sync_events_up t switch;
      sync_counters_up t switch;
      sync_packet_out t switch)
    (sliced_switches t)

let app t =
  App_intf.daemon ~name:(who t) (fun ~now -> run t ~now)

let flows_accepted t = t.accepted

let flows_rejected t = t.rejected
