module Y = Yancfs
module OF = Openflow

let install yfs ~cred ~fs_errors ~name ~priority ~idle_timeout ~headers
    ~(ingress : Topo_view.location) ~(dst_loc : Topo_view.location) ~buffer_id
    ~data hops =
  let exact = OF.Of_match.exact_of_headers headers in
  (* (switch, in_port, out_port) per hop, final delivery last. *)
  let flows =
    let rec build sw in_port = function
      | [] -> [ sw, in_port, dst_loc.port ]
      | (h : Topo_view.hop) :: rest ->
        (sw, in_port, h.out_port) :: build h.peer h.peer_in rest
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
          (Y.Outdir.submit yfs ~cred ~switch:sw ~in_port
             ~actions:[ OF.Action.Output (OF.Action.Physical out_port) ]
             ~data ()))
    (List.rev flows)
