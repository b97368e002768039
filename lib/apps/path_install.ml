module Y = Yancfs
module OF = Openflow

type location = { switch : string; port : int }

type hop = { out_port : int; peer : string; peer_in : int }

let adjacency yfs ~cred =
  let adj = Hashtbl.create 64 in
  List.iter
    (fun switch ->
      List.iter
        (fun port ->
          match Y.Yanc_fs.peer_of yfs ~cred ~switch ~port with
          | Some (peer, peer_in) ->
            Hashtbl.add adj switch { out_port = port; peer; peer_in }
          | None -> ())
        (Y.Yanc_fs.port_numbers yfs ~cred switch))
    (Y.Yanc_fs.switch_names yfs);
  adj

let install yfs ~cred ~fs_errors ~name ~priority ~idle_timeout ~headers
    ~ingress ~dst_loc ~buffer_id ~data hops =
  let exact = OF.Of_match.exact_of_headers headers in
  (* (switch, in_port, out_port) per hop, final delivery last. *)
  let flows =
    let rec build sw in_port = function
      | [] -> [ sw, in_port, dst_loc.port ]
      | h :: rest -> (sw, in_port, h.out_port) :: build h.peer h.peer_in rest
    in
    build ingress.switch ingress.port hops
  in
  (* Last hop first, ingress last, so no packet races an absent rule. *)
  List.iter
    (fun (sw, in_port, out_port) ->
      let is_ingress_hop = sw = ingress.switch && in_port = ingress.port in
      let flow =
        { Y.Flowdir.default with
          Y.Flowdir.of_match = { exact with OF.Of_match.in_port = Some in_port };
          actions = [ OF.Action.Output (OF.Action.Physical out_port) ];
          priority;
          idle_timeout;
          buffer_id = (if is_ingress_hop then buffer_id else None) }
      in
      App_intf.checked fs_errors sw "flow"
        (Y.Yanc_fs.create_flow yfs ~cred ~switch:sw ~name:(name ()) flow);
      (* Unbuffered ingress: push the original packet along too. *)
      if is_ingress_hop && buffer_id = None then
        App_intf.checked fs_errors sw "packet-out"
          (Y.Outdir.submit (Y.Yanc_fs.fs yfs) ~cred ~root:(Y.Yanc_fs.root yfs)
             ~switch:sw ~in_port
             ~actions:[ OF.Action.Output (OF.Action.Physical out_port) ]
             ~data ()))
    (List.rev flows)
