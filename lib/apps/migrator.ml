module Y = Yancfs
module OF = Openflow

let map_action port_map = function
  | OF.Action.Output (OF.Action.Physical p) ->
    OF.Action.Output (OF.Action.Physical (port_map p))
  | a -> a

let map_match port_map (m : OF.Of_match.t) =
  { m with OF.Of_match.in_port = Option.map port_map m.OF.Of_match.in_port }

let copy_one yfs ~cred ~src ~dst ~port_map ~target name =
  match Y.Yanc_fs.read_flow yfs ~cred ~switch:src name with
  | Error e -> Error (Printf.sprintf "%s/%s: %s" src name e)
  | Ok flow ->
    let flow =
      { flow with
        Y.Flowdir.of_match = map_match port_map flow.of_match;
        actions = List.map (map_action port_map) flow.actions;
        version = 0;
        buffer_id = None }
    in
    Result.map_error
      (Printf.sprintf "%s/%s: %s" dst target)
      (Y.Yanc_fs.upsert_flow yfs ~cred ~switch:dst ~name:target flow)

let copy_flows yfs ~cred ~src ~dst ?(port_map = Fun.id) ?(rename = Fun.id) () =
  let flows = Y.Yanc_fs.flow_names yfs ~cred src in
  List.fold_left
    (fun acc name ->
      match acc with
      | Error _ as e -> e
      | Ok count -> (
        match copy_one yfs ~cred ~src ~dst ~port_map ~target:(rename name) name with
        | Ok () -> Ok (count + 1)
        | Error _ as e -> e))
    (Ok 0) flows

let move_flows yfs ~cred ~src ~dst ?port_map () =
  match copy_flows yfs ~cred ~src ~dst ?port_map () with
  | Error _ as e -> e
  | Ok count ->
    let fs_errors = App_intf.fs_errors yfs in
    List.iter
      (fun name ->
        App_intf.checked fs_errors "migrator" (src ^ "/" ^ name)
          (Y.Yanc_fs.delete_flow yfs ~cred ~switch:src name))
      (Y.Yanc_fs.flow_names yfs ~cred src);
    Ok count

let oneshot yfs ~cred ~src ~dst =
  App_intf.oneshot ~name:"migrator" (fun ~now:_ ->
      match move_flows yfs ~cred ~src ~dst () with
      | Ok n -> Logs.info (fun m -> m "migrator: moved %d flows %s -> %s" n src dst)
      | Error e -> Logs.err (fun m -> m "migrator: %s" e))
