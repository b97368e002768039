module Y = Yancfs
module P = Packet
module OF = Openflow
module Topo_view = Apps.Topo_view

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
  topo : Topo_view.t;  (* the master's *)
  own : Topo_view.t;   (* the view's own peers *)
  sync : View_sync.t;
}

let ( let* ) = Result.bind

let allowed_ports t switch =
  match List.assoc_opt switch t.config.switches with
  | Some [] | None -> Topo_view.ports t.topo switch
  | Some ports -> ports

let sliced_switches t = List.map fst t.config.switches

let mirror_switch t switch ports =
  let vcred = View_sync.view_cred t.sync in
  (match Y.Yanc_fs.switch_dpid t.master switch with
  | None -> ()
  | Some dpid ->
    View_sync.checked t.sync switch
      (Y.Yanc_fs.add_switch t.view_fs ~cred:vcred ~name:switch ~dpid
         ~protocol:
           (Option.value (Y.Yanc_fs.switch_protocol t.master switch)
              ~default:"unknown")
         ~n_buffers:0 ~n_tables:1 ~capabilities:[ "sliced" ] ~actions:[]));
  let ports = if ports = [] then allowed_ports t switch else ports in
  List.iter
    (fun port ->
      match Y.Yanc_fs.read_port t.master ~cred:t.cred ~switch port with
      | Ok info ->
        View_sync.checked t.sync (switch ^ " port")
          (Y.Yanc_fs.set_port t.view_fs ~cred:vcred ~switch info)
      | Error _ -> ())
    ports

let create ?(cred = Vfs.Cred.root) ~master config =
  let* view_fs = Y.Yanc_fs.in_view master ~cred config.view in
  let sync = View_sync.create ~cred ~master ~view_fs ~name:("slicer-" ^ config.view) in
  let t =
    { master; view_fs; cred; config; topo = Topo_view.create ~cred master;
      own = Topo_view.create ~cred:(View_sync.view_cred sync) view_fs; sync }
  in
  List.iter (fun (sw, ports) -> mirror_switch t sw ports) config.switches;
  View_sync.subscribe t.sync (List.map fst config.switches);
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
          let wanted =
            match Topo_view.peer t.topo ~switch ~port with
            | Some (psw, pport) when in_slice t psw pport -> Some (psw, pport)
            | Some _ | None -> None
          in
          if wanted <> Topo_view.peer t.own ~switch ~port then
            View_sync.checked t.sync (switch ^ " peer")
              (Y.Yanc_fs.set_peer t.view_fs ~cred:(View_sync.view_cred t.sync)
                 ~switch ~port ~peer:wanted))
        ports)
    t.config.switches

(* --- the translation ------------------------------------------------------------ *)

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

(* The tenant's flow, confined: match narrowed to the flowspace,
   outputs to the slice's ports, priority below the cap. *)
let confine t ~switch name (flow : Y.Flowdir.t) =
  match
    OF.Of_match.intersect flow.of_match t.config.flowspace,
    translate_actions t switch flow.actions
  with
  | None, _ -> Error "match outside the slice flowspace"
  | _, Error e -> Error e
  | Some of_match, Ok actions ->
    Ok
      [ { View_sync.switch;
          name = Printf.sprintf "s.%s.%s" t.config.view name;
          flow =
            { flow with
              Y.Flowdir.of_match;
              actions;
              priority = min flow.priority t.config.priority_cap } } ]

let event_in_slice t ~switch (ev : Y.Eventdir.event) =
  if not (in_slice t switch ev.in_port) then None
  else
    match Y.Eventdir.frame_of ev with
    | Some frame
      when OF.Of_match.matches t.config.flowspace
             (P.Headers.of_eth ~in_port:ev.in_port frame) ->
      Some (switch, ev.in_port)
    | Some _ | None -> None

let packet_out t ~switch (req : Y.Outdir.request) =
  match translate_actions t switch req.actions with
  | Error _ -> [] (* dropped: tenant tried to leave the slice *)
  | Ok actions -> [ switch, { req with actions } ]

let translation =
  { View_sync.refresh = mirror_topology;
    view_switches = sliced_switches;
    master_switches = sliced_switches;
    flow_down = confine;
    packet_in = event_in_slice;
    packet_out }

let run t ~now:_ = View_sync.run t.sync translation t

let app t =
  Apps.App_intf.daemon ~name:("slicer-" ^ t.config.view) (fun ~now -> run t ~now)

let flows_accepted t = View_sync.accepted t.sync

let flows_rejected t = View_sync.rejected t.sync
