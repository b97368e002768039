module Y = Yancfs
module OF = Openflow
module Topo_view = Apps.Topo_view

type t = {
  master : Y.Yanc_fs.t;
  view_fs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  view : string;
  switch_name : string;
  topo : Topo_view.t;
  mutable written : int;  (* the topology version the virtual ports show *)
  mutable vports : (int * (string * int)) list;
  sync : View_sync.t;
}

let ( let* ) = Result.bind

let create ?(cred = Vfs.Cred.root) ?(switch_name = "big0") ~master ~view () =
  let* view_fs = Y.Yanc_fs.in_view master ~cred view in
  let sync = View_sync.create ~cred ~master ~view_fs ~name:("bigswitch-" ^ view) in
  let* () =
    Y.Yanc_fs.add_switch view_fs ~cred:(View_sync.view_cred sync) ~name:switch_name
      ~dpid:0L ~protocol:"virtual-big-switch" ~n_buffers:0 ~n_tables:1
      ~capabilities:[ "virtual" ] ~actions:[]
  in
  Ok
    { master; view_fs; cred; view; switch_name;
      topo = Topo_view.create ~cred master; written = 0; vports = []; sync }

let view_fs t = t.view_fs

let port_map t = t.vports

(* --- underlay inspection --------------------------------------------------- *)

(* Every edge port of the underlay as one virtual port, numbered in
   (switch, port) order; rewritten only when the topology changed. *)
let refresh_ports t =
  let version = Topo_view.version t.topo in
  if version <> t.written then begin
    t.written <- version;
    t.vports <-
      Topo_view.switches t.topo
      |> List.concat_map (fun sw ->
             List.map (fun port -> sw, port) (Topo_view.edge_ports t.topo sw))
      |> List.sort compare
      |> List.mapi (fun i e -> i + 1, e);
    List.iter
      (fun (vport, (switch, port)) ->
        match Y.Yanc_fs.read_port t.master ~cred:t.cred ~switch port with
        | Ok info ->
          View_sync.checked t.sync (Printf.sprintf "vport %d" vport)
            (Y.Yanc_fs.set_port t.view_fs ~cred:(View_sync.view_cred t.sync)
               ~switch:t.switch_name
               { info with
                 Openflow.Of_types.Port_info.port_no = vport;
                 name = Printf.sprintf "%s-%s-p%d" t.switch_name switch port })
        | Error _ -> ())
      t.vports
  end

let real_of_vport t vport = List.assoc_opt vport t.vports

let vport_of_real t real =
  List.find_map (fun (v, r) -> if r = real then Some v else None) t.vports

(* --- the translation ------------------------------------------------------------- *)

let split_actions actions =
  List.fold_left
    (fun (outs, rewrites, other) a ->
      match a with
      | OF.Action.Output (OF.Action.Physical v) -> (v :: outs, rewrites, other)
      | OF.Action.Output _ -> (outs, rewrites, a :: other)
      | a -> (outs, a :: rewrites, other))
    ([], [], []) actions
  |> fun (a, b, c) -> List.rev a, List.rev b, List.rev c

(* The transit rules toward [egress], each over the lowest-port of the
   switch's equal-cost next hops: on every switch when the ingress is
   unknown, else along the route from the ingress. A switch with no
   route toward [egress] (or [egress] itself) gets no rule. *)
let transit t ~ingress ~egress =
  let table = Topo_view.toward t.topo ~dst_sw:egress in
  let hop sw =
    match Hashtbl.find_opt table sw with
    | None | Some [||] -> None
    | Some hops -> Some hops.(0)
  in
  let rule sw (h : Topo_view.hop) =
    sw, [ OF.Action.Output (OF.Action.Physical h.out_port) ]
  in
  match ingress with
  | None ->
    List.filter_map (fun sw -> Option.map (rule sw) (hop sw))
      (Topo_view.switches t.topo)
  | Some (isw, _) ->
    let rec walk sw =
      match hop sw with None -> [] | Some h -> rule sw h :: walk h.peer
    in
    walk isw

(* A virtual flow as one rule per physical switch: (switch, actions),
   the egress rule first — every packet of the flow crosses it exactly
   once, so it carries the true counters. A drop (or controller-only)
   rule goes on the ingress switch, or everywhere. *)
let compile t ~switch:_ vname (flow : Y.Flowdir.t) =
  let* () =
    if List.exists (function OF.Action.Enqueue _ -> true | _ -> false) flow.actions
    then Error "QoS enqueue is not supported on virtual switches"
    else Ok ()
  in
  let* ingress =
    match flow.of_match.OF.Of_match.in_port with
    | None -> Ok None
    | Some v ->
      Option.to_result
        ~none:(Printf.sprintf "virtual in_port %d does not exist" v)
        (Option.map Option.some (real_of_vport t v))
  in
  let* rules =
    match split_actions flow.actions with
    | [], _, other ->
      Ok
        (List.map (fun sw -> sw, other)
           (match ingress with
           | Some (sw, _) -> [ sw ]
           | None -> Topo_view.switches t.topo))
    | [ vout ], rewrites, other -> (
      match real_of_vport t vout with
      | None -> Error (Printf.sprintf "virtual output port %d does not exist" vout)
      | Some (egress, port) ->
        Ok
          ((egress, rewrites @ other @ [ OF.Action.Output (OF.Action.Physical port) ])
          :: transit t ~ingress ~egress))
    | _ :: _ :: _, _, _ ->
      Error "multiple virtual output ports are not supported by this virtualizer"
  in
  Ok
    (List.map
       (fun (sw, actions) ->
         let in_port =
           match ingress with
           | Some (isw, iport) when isw = sw -> Some iport
           | _ -> None
         in
         { View_sync.switch = sw;
           name = Printf.sprintf "v.%s.%s.%s" t.view vname sw;
           flow =
             { flow with
               Y.Flowdir.of_match = { flow.of_match with OF.Of_match.in_port };
               actions } })
       rules)

let packet_in t ~switch (ev : Y.Eventdir.event) =
  (* An interior port is not visible on the big switch. *)
  Option.map (fun vport -> t.switch_name, vport) (vport_of_real t (switch, ev.in_port))

let packet_out t ~switch:_ (req : Y.Outdir.request) =
  let out (sw, port) =
    ( sw,
      { req with
        Y.Outdir.in_port = None;
        actions = [ OF.Action.Output (OF.Action.Physical port) ] } )
  in
  List.concat_map
    (function
      | OF.Action.Output (OF.Action.Physical v) ->
        Option.to_list (Option.map out (real_of_vport t v))
      | OF.Action.Output (OF.Action.Flood | OF.Action.All) ->
        List.map (fun (_, real) -> out real) t.vports
      | _ -> [])
    req.actions

let translation =
  { View_sync.refresh = refresh_ports;
    view_switches = (fun t -> [ t.switch_name ]);
    master_switches = (fun t -> Topo_view.switches t.topo);
    flow_down = compile;
    packet_in;
    packet_out }

let run t ~now:_ = View_sync.run t.sync translation t

let app t =
  Apps.App_intf.daemon ~name:("bigswitch-" ^ t.view) (fun ~now -> run t ~now)

let flows_compiled t = View_sync.accepted t.sync
