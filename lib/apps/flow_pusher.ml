module Y = Yancfs

type spec = { switch : string; name : string; flow : Y.Flowdir.t }

let ( let* ) = Result.bind

let parse_line line =
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Error "empty flow spec"
  | switch :: kvs ->
    let* pairs =
      List.fold_left
        (fun acc kv ->
          let* acc = acc in
          match String.index_opt kv '=' with
          | None -> Error (Printf.sprintf "missing '=' in %S" kv)
          | Some i ->
            Ok
              ((String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
              :: acc))
        (Ok []) kvs
    in
    let pairs = List.rev pairs in
    let* name =
      match List.assoc_opt "name" pairs with
      | Some n when Vfs.Path.valid_name n -> Ok n
      | Some n -> Error (Printf.sprintf "invalid flow name %S" n)
      | None -> Error "missing name="
    in
    (* The rest are the flow's files, as the flow directory would hold
       them. *)
    let files = List.filter (fun (k, _) -> k <> "name") pairs in
    let* flow =
      match List.find_opt (fun (k, _) -> not (Y.Flowdir.is_spec_file k)) files with
      | Some (k, _) -> Error (Printf.sprintf "unknown key %S" k)
      | None -> Y.Flowdir.of_fields files
    in
    Ok { switch; name; flow }

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go acc (lineno + 1) rest
      else (
        match parse_line trimmed with
        | Ok spec -> go (spec :: acc) (lineno + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go [] 1 lines

let push yfs ~cred specs =
  let all_switches = Y.Yanc_fs.switch_names yfs in
  List.fold_left
    (fun acc spec ->
      let* count = acc in
      let targets =
        if spec.switch = "*" then all_switches else [ spec.switch ]
      in
      List.fold_left
        (fun acc switch ->
          let* count = acc in
          match
            Y.Yanc_fs.upsert_flow yfs ~cred ~switch ~name:spec.name spec.flow
          with
          | Ok () -> Ok (count + 1)
          | Error e ->
            Error (Printf.sprintf "%s/%s: %s" switch spec.name e))
        (Ok count) targets)
    (Ok 0) specs

let push_config yfs ~cred config =
  let* specs = parse config in
  push yfs ~cred specs

let oneshot yfs ~cred ~config =
  App_intf.oneshot ~name:"flow-pusher" (fun ~now:_ ->
      match push_config yfs ~cred config with
      | Ok n -> Logs.info (fun m -> m "flow-pusher: wrote %d flows" n)
      | Error e -> Logs.err (fun m -> m "flow-pusher: %s" e))

let watching yfs ~cred ~path =
  (* The paper's "static" pusher, made live: the config is itself a file
     in the tree, so a watch turns every edit into a push. A save storm
     coalesces into one Modified event, hence one push per drain. *)
  let fs = Y.Yanc_fs.fs yfs in
  let notifier = Fsnotify.Notifier.create fs in
  ignore
    (Fsnotify.Notifier.add_watch notifier path
       (Fsnotify.Notifier.mask
          Fsnotify.Event.[ Created; Modified; Moved_to; Overflow ]));
  App_intf.daemon ~name:"flow-pusher"
    ~pending:(fun () -> Fsnotify.Notifier.pending notifier > 0)
    (fun ~now:_ ->
      if Fsnotify.Notifier.read_events notifier <> [] then
        match Vfs.Fs.read_file fs ~cred path with
        | Error _ -> () (* deleted or unreadable: keep the installed flows *)
        | Ok config -> (
          match push_config yfs ~cred config with
          | Ok n -> Logs.info (fun m -> m "flow-pusher: wrote %d flows" n)
          | Error e -> Logs.err (fun m -> m "flow-pusher: %s" e)))
