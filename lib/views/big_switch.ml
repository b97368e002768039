module Y = Yancfs
module OF = Openflow
module Path_install = Apps.Path_install

type t = {
  master : Y.Yanc_fs.t;
  view_fs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  view : string;
  switch_name : string;
  mutable switches : string list;  (* the master's, as this run's refresh listed *)
  mutable vports : (int * (string * int)) list;
  sync : View_sync.t;
}

let ( let* ) = Result.bind

let create ?(cred = Vfs.Cred.root) ?(switch_name = "big0") ~master ~view () =
  let* view_fs = Y.Yanc_fs.in_view master ~cred view in
  let* () =
    Y.Yanc_fs.add_switch view_fs ~name:switch_name ~dpid:0L
      ~protocol:"virtual-big-switch" ~n_buffers:0 ~n_tables:1
      ~capabilities:[ "virtual" ] ~actions:[]
  in
  Ok
    { master; view_fs; cred; view; switch_name; switches = []; vports = [];
      sync = View_sync.create ~cred ~master ~view_fs ~name:("bigswitch-" ^ view) }

let view_fs t = t.view_fs

let port_map t = t.vports

(* --- underlay inspection --------------------------------------------------- *)

let edge_ports t =
  t.switches
  |> List.concat_map (fun switch ->
         Y.Yanc_fs.port_numbers t.master ~cred:t.cred switch
         |> List.filter_map (fun port ->
                if Y.Yanc_fs.peer_of t.master ~cred:t.cred ~switch ~port = None
                then Some (switch, port)
                else None))
  |> List.sort compare

let refresh_ports t =
  t.switches <- Y.Yanc_fs.switch_names t.master;
  t.vports <- List.mapi (fun i e -> i + 1, e) (edge_ports t);
  List.iter
    (fun (vport, (switch, port)) ->
      match Y.Yanc_fs.read_port t.master ~cred:t.cred ~switch port with
      | Ok info ->
        View_sync.checked t.sync (Printf.sprintf "vport %d" vport)
          (Y.Yanc_fs.set_port t.view_fs ~switch:t.switch_name
             { info with
               Openflow.Of_types.Port_info.port_no = vport;
               name = Printf.sprintf "%s-%s-p%d" t.switch_name switch port })
      | Error _ -> ())
    t.vports

let real_of_vport t vport = List.assoc_opt vport t.vports

let vport_of_real t real =
  List.find_map (fun (v, r) -> if r = real then Some v else None) t.vports

(* One next hop from every switch toward [target] over peer links: the
   lowest-port one of the equal-cost candidates. *)
let routes_to t target =
  let table =
    Path_install.next_hops (Path_install.adjacency t.master ~cred:t.cred)
      ~dst_sw:target
  in
  fun sw ->
    match Hashtbl.find_opt table sw with
    | None | Some [||] -> None
    | Some hops -> Some hops.(0)

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

(* The transit rules toward [egress]: on every switch when the ingress
   is unknown, else along the route from the ingress. A switch with no
   route toward [egress] gets no rule. *)
let transit t ~ingress ~egress =
  let next_hop = routes_to t egress in
  let hop sw = if sw = egress then None else next_hop sw in
  let rule sw (h : Path_install.hop) =
    sw, [ OF.Action.Output (OF.Action.Physical h.out_port) ]
  in
  match ingress with
  | None ->
    List.filter_map (fun sw -> Option.map (rule sw) (hop sw))
      (Y.Yanc_fs.switch_names t.master)
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
           | None -> Y.Yanc_fs.switch_names t.master))
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
    master_switches = (fun t -> t.switches);
    flow_down = compile;
    packet_in;
    packet_out }

let run t ~now:_ = View_sync.run t.sync translation t

let app t =
  Apps.App_intf.daemon ~name:("bigswitch-" ^ t.view) (fun ~now -> run t ~now)

let flows_compiled t = View_sync.accepted t.sync
