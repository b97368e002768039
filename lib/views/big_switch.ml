module Y = Yancfs
module P = Packet
module OF = Openflow
module App_intf = Apps.App_intf
module Path_install = Apps.Path_install

type compiled = { version : int; installed : (string * string) list }
(* per view flow: master (switch, flow name) pairs *)

type t = {
  master : Y.Yanc_fs.t;
  view_fs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  view : string;
  switch_name : string;
  mutable vports : (int * (string * int)) list;
  synced : (string, compiled) Hashtbl.t;
  events : App_intf.Packet_in.t;
  mutable compiled_count : int;
  fs_errors : Telemetry.Registry.counter;
}

let ( let* ) = Result.bind

let who t = "bigswitch-" ^ t.view

let checked t what r = App_intf.checked t.fs_errors (who t) what r

let create ?(cred = Vfs.Cred.root) ?(switch_name = "big0") ~master ~view () =
  let* view_fs = Y.Yanc_fs.in_view master ~cred view in
  let* () =
    Y.Yanc_fs.add_switch view_fs ~name:switch_name ~dpid:0L
      ~protocol:"virtual-big-switch" ~n_buffers:0 ~n_tables:1
      ~capabilities:[ "virtual" ] ~actions:[]
  in
  Ok
    { master; view_fs; cred; view; switch_name; vports = [];
      synced = Hashtbl.create 32;
      events = App_intf.Packet_in.create master ~cred ~app:("bigsw-" ^ view);
      compiled_count = 0; fs_errors = App_intf.fs_errors master }

let view_fs t = t.view_fs

let port_map t = t.vports

(* --- underlay inspection --------------------------------------------------- *)

let edge_ports t =
  Y.Yanc_fs.switch_names t.master
  |> List.concat_map (fun switch ->
         Y.Yanc_fs.port_numbers t.master ~cred:t.cred switch
         |> List.filter_map (fun port ->
                if Y.Yanc_fs.peer_of t.master ~cred:t.cred ~switch ~port = None
                then Some (switch, port)
                else None))
  |> List.sort compare

let refresh_ports t =
  let edges = edge_ports t in
  t.vports <- List.mapi (fun i e -> i + 1, e) edges;
  List.iter
    (fun (vport, (switch, port)) ->
      match Y.Yanc_fs.read_port t.master ~cred:t.cred ~switch port with
      | Ok info ->
        checked t (Printf.sprintf "vport %d" vport)
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

(* --- flow compilation --------------------------------------------------------- *)

let split_actions actions =
  List.fold_left
    (fun (outs, rewrites, other) a ->
      match a with
      | OF.Action.Output (OF.Action.Physical v) -> (v :: outs, rewrites, other)
      | OF.Action.Output _ -> (outs, rewrites, a :: other)
      | a -> (outs, a :: rewrites, other))
    ([], [], []) actions
  |> fun (a, b, c) -> List.rev a, List.rev b, List.rev c

let master_flow_name t vname sw = Printf.sprintf "v.%s.%s.%s" t.view vname sw

let install_master_flow t ~switch ~name flow =
  match Y.Yanc_fs.upsert_flow t.master ~cred:t.cred ~switch ~name flow with
  | Ok () -> true
  | Error e ->
    App_intf.fs_failed t.fs_errors (who t) (switch ^ "/" ^ name) e;
    false

let remove_installed t installed =
  List.iter
    (fun (switch, name) ->
      match Y.Yanc_fs.delete_flow t.master ~cred:t.cred ~switch name with
      | Error Vfs.Errno.ENOENT -> () (* already gone, e.g. timed out *)
      | r -> checked t (switch ^ "/" ^ name) r)
    installed

let compile_flow t vdir vname (flow : Y.Flowdir.t) =
  let vfs = Y.Yanc_fs.fs t.view_fs in
  let fail msg =
    checked t (vname ^ " error")
      (Y.Flowdir.set_error vfs ~cred:t.cred vdir (Some msg));
    []
  in
  if List.exists (function OF.Action.Enqueue _ -> true | _ -> false) flow.actions
  then fail "QoS enqueue is not supported on virtual switches"
  else
  let outs, rewrites, other = split_actions flow.actions in
  let ingress =
    match flow.of_match.OF.Of_match.in_port with
    | None -> Ok None
    | Some v -> (
      match real_of_vport t v with
      | Some real -> Ok (Some real)
      | None -> Error (Printf.sprintf "virtual in_port %d does not exist" v))
  in
  match ingress with
  | Error e -> fail e
  | Ok ingress -> (
    match outs, other with
    | [], _ ->
      (* A drop (or controller-only) rule: install on the ingress switch
         or everywhere. *)
      let targets =
        match ingress with
        | Some (sw, _) -> [ sw ]
        | None -> Y.Yanc_fs.switch_names t.master
      in
      List.filter_map
        (fun sw ->
          let of_match =
            { flow.of_match with
              OF.Of_match.in_port =
                (match ingress with
                | Some (isw, iport) when isw = sw -> Some iport
                | _ -> None) }
          in
          let name = master_flow_name t vname sw in
          if
            install_master_flow t ~switch:sw ~name
              { flow with Y.Flowdir.of_match; actions = other; version = 0;
                buffer_id = None }
          then Some (sw, name)
          else None)
        targets
    | [ vout ], _ -> (
      match real_of_vport t vout with
      | None -> fail (Printf.sprintf "virtual output port %d does not exist" vout)
      | Some (egress_sw, egress_port) ->
        let next_hop = routes_to t egress_sw in
        let targets =
          match ingress with
          | Some (sw, _) -> [ sw ]
          | None -> Y.Yanc_fs.switch_names t.master
        in
        (* Transit rules are needed on every switch on any path; with
           ingress unknown we install on all switches. With a known
           ingress we still install transit rules everywhere along the
           unique BFS route by walking it. *)
        let route_switches =
          match ingress with
          | None -> targets
          | Some (isw, _) ->
            let rec walk sw acc =
              if sw = egress_sw then List.rev (sw :: acc)
              else
                match next_hop sw with
                | None -> List.rev (sw :: acc) (* unreachable: egress only *)
                | Some (h : Path_install.hop) -> walk h.peer (sw :: acc)
            in
            walk isw []
        in
        List.filter_map
          (fun sw ->
            let actions =
              if sw = egress_sw then
                rewrites @ other
                @ [ OF.Action.Output (OF.Action.Physical egress_port) ]
              else
                match next_hop sw with
                | Some h -> [ OF.Action.Output (OF.Action.Physical h.out_port) ]
                | None -> []
            in
            if actions = [] then None
            else begin
              let of_match =
                { flow.of_match with
                  OF.Of_match.in_port =
                    (match ingress with
                    | Some (isw, iport) when isw = sw -> Some iport
                    | _ -> None) }
              in
              let name = master_flow_name t vname sw in
              if
                install_master_flow t ~switch:sw ~name
                  { flow with Y.Flowdir.of_match; actions; version = 0;
                    buffer_id = None }
              then Some (sw, name)
              else None
            end)
          route_switches)
    | _ :: _ :: _, _ ->
      fail "multiple virtual output ports are not supported by this virtualizer")

(* Every version is read through one handle on the view's flows/
   directory; a flow is opened only when stale. *)
let sync_flows_down t =
  let vfs = Y.Yanc_fs.fs t.view_fs in
  let live = Y.Yanc_fs.flow_names t.view_fs ~cred:t.cred t.switch_name in
  let stale_dir vflows vname =
    match Y.Flowdir.read_version ~flow:vname vfs ~cred:t.cred vflows with
    | None -> None
    | Some version -> (
      match Hashtbl.find_opt t.synced vname with
      | Some c when c.version >= version -> None
      | Some _ | None ->
        Result.to_option
          (Result.map
             (fun vdir -> (vdir, version))
             (Y.Yanc_fs.open_flow t.view_fs ~cred:t.cred ~switch:t.switch_name
                vname)))
  in
  (match Y.Yanc_fs.open_flows t.view_fs ~cred:t.cred t.switch_name with
  | Error _ -> ()
  | Ok vflows ->
    List.iter
      (fun vname ->
        match stale_dir vflows vname with
        | None -> ()
        | Some (vdir, version) ->
          (match Hashtbl.find_opt t.synced vname with
          | Some c -> remove_installed t c.installed
          | None -> ());
          let verdict, report =
            Y.Flowdir.read_reporting vfs ~cred:t.cred vdir Result.ok
          in
          checked t (vname ^ " error") report;
          let installed =
            match verdict with
            | Error _ -> []
            | Ok flow -> compile_flow t vdir vname flow
          in
          if installed <> [] then t.compiled_count <- t.compiled_count + 1;
          Hashtbl.replace t.synced vname { version; installed })
      live);
  (* Deletions. *)
  let gone =
    Hashtbl.fold
      (fun vname c acc ->
        if List.mem vname live then acc else (vname, c) :: acc)
      t.synced []
  in
  List.iter
    (fun (vname, c) ->
      Hashtbl.remove t.synced vname;
      remove_installed t c.installed)
    gone

(* --- events and packet-out ------------------------------------------------------ *)

let sync_events_up t =
  List.iter
    (fun switch ->
      App_intf.Packet_in.drain t.events ~switch (fun (ev : Y.Eventdir.event) ->
          match vport_of_real t (switch, ev.in_port) with
          | None -> () (* interior port: not visible on the big switch *)
          | Some vport ->
            ignore
              (Y.Eventdir.publish (Y.Yanc_fs.fs t.view_fs)
                 ~root:(Y.Yanc_fs.root t.view_fs) ~switch:t.switch_name
                 ~in_port:vport ~reason:ev.reason ~buffer_id:None
                 ~total_len:ev.total_len ~data:ev.data)))
    (Y.Yanc_fs.switch_names t.master)

let sync_packet_out t =
  List.iter
    (fun (req : Y.Outdir.request) ->
      let forward (sw, port) =
        checked t (sw ^ " packet-out")
          (Y.Outdir.submit (Y.Yanc_fs.fs t.master) ~cred:t.cred
             ~root:(Y.Yanc_fs.root t.master) ~switch:sw
             ~actions:[ OF.Action.Output (OF.Action.Physical port) ]
             ~data:req.data ())
      in
      List.iter
        (fun action ->
          match action with
          | OF.Action.Output (OF.Action.Physical v) ->
            Option.iter forward (real_of_vport t v)
          | OF.Action.Output (OF.Action.Flood | OF.Action.All) ->
            List.iter (fun (_, real) -> forward real) t.vports
          | _ -> ())
        req.actions)
    (Y.Outdir.consume (Y.Yanc_fs.fs t.view_fs)
       ~root:(Y.Yanc_fs.root t.view_fs) ~switch:t.switch_name
       ~on_error:(fun e ->
         checked t (t.switch_name ^ " packet-out rmdir") (Error e)))

(* Every packet of a virtual flow crosses its egress hop exactly once,
   so the egress-switch rule carries the true counters. *)
(* Each flows/ directory involved — an egress switch's, the view's —
   is opened once per sync, on first use. *)
let sync_counters_up t =
  let mfs = Y.Yanc_fs.fs t.master in
  let egress = Hashtbl.create 8 in
  let mflows sw =
    match Hashtbl.find_opt egress sw with
    | Some d -> d
    | None ->
      let d = Y.Yanc_fs.open_flows t.master ~cred:t.cred sw in
      Hashtbl.replace egress sw d;
      d
  in
  let vflows = lazy (Y.Yanc_fs.open_flows t.view_fs ~cred:t.cred t.switch_name) in
  Hashtbl.iter
    (fun vname c ->
      match List.rev c.installed with
      | [] -> ()
      | (egress_sw, mname) :: _ -> (
        match
          Result.map
            (Y.Flowdir.read_counters ~flow:mname mfs ~cred:t.cred)
            (mflows egress_sw)
        with
        | Ok (Some (packets, bytes)) ->
          checked t (vname ^ " counters")
            (Result.bind (Lazy.force vflows) (fun vflows ->
                 Y.Flowdir.write_counters ~flow:vname (Y.Yanc_fs.fs t.view_fs)
                   ~cred:t.cred vflows ~packets ~bytes ~duration_s:0))
        | Ok None | Error _ -> ()))
    t.synced

let run t ~now:_ =
  refresh_ports t;
  sync_flows_down t;
  sync_events_up t;
  sync_packet_out t;
  sync_counters_up t

let app t =
  App_intf.daemon ~name:(who t) (fun ~now -> run t ~now)

let flows_compiled t = t.compiled_count
