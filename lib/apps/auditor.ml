module Y = Yancfs
module Fs = Vfs.Fs

type finding = { severity : [ `Info | `Warning | `Error ]; message : string }

let finding severity fmt = Printf.ksprintf (fun message -> { severity; message }) fmt

let audit yfs ~cred =
  let fs = Y.Yanc_fs.fs yfs in
  let root = Y.Yanc_fs.root yfs in
  let out = ref [] in
  let add f = out := f :: !out in
  let switches = Y.Yanc_fs.switch_names yfs in
  add (finding `Info "switches: %d" (List.length switches));
  List.iter
    (fun switch ->
      (* The children the schema gives every switch present? *)
      List.iter
        (fun child ->
          let p = Y.Layout.switch_attr ~root switch child in
          (* kind_of, not is_dir: an unreadable child is a different
             problem than a missing one, and the bool form hides it. *)
          match Fs.kind_of fs ~cred p with
          | Ok Fs.Dir -> ()
          | Ok _ ->
            add (finding `Error "switch %s: %s is not a directory" switch child)
          | Error Vfs.Errno.EACCES ->
            add
              (finding `Warning "switch %s: %s/ not auditable (permission denied)"
                 switch child)
          | Error _ ->
            add (finding `Error "switch %s: missing %s/" switch child))
        Y.Schema.switch.makes;
      (if Y.Yanc_fs.switch_dpid yfs switch = None then
         add (finding `Error "switch %s: missing or invalid id file" switch));
      (* Flows parse? Collect the parseable ones for conflict analysis. *)
      let parsed = ref [] in
      (* The version and error probes go through one handle on flows/;
         a committed flow is opened to be parsed. *)
      (match Y.Yanc_fs.open_flows yfs ~cred switch with
      | Error _ -> () (* reported with the switch's layout above *)
      | Ok flows ->
        List.iter
          (fun flow ->
            (match Y.Flowdir.read_version ~flow fs ~cred flows with
            | Ok None ->
              add (finding `Warning "flow %s/%s: never committed (no version)" switch flow)
            | Error e ->
              add (finding `Error "flow %s/%s: version: %s" switch flow (Vfs.Errno.message e))
            | Ok (Some _) -> (
              match Y.Yanc_fs.read_flow yfs ~cred ~switch flow with
              | Ok f -> parsed := (flow, f) :: !parsed
              | Error e -> add (finding `Error "flow %s/%s: %s" switch flow e)));
            match Y.Flowdir.read_error ~flow fs ~cred flows with
            | Ok (Some _) ->
              add (finding `Error "flow %s/%s: driver reported an error" switch flow)
            | Error Vfs.Errno.EACCES ->
              add
                (finding `Warning
                   "flow %s/%s: error file not readable (permission denied)"
                   switch flow)
            | Ok None | Error _ -> ())
          (Y.Yanc_fs.flow_names yfs ~cred switch));
      (* Conflicts: two committed flows at the same priority whose
         matches overlap but whose actions differ — which one a packet
         hits is undefined (OpenFlow leaves overlapping-priority
         behaviour to the switch). *)
      let rec conflicts = function
        | [] -> ()
        | (name_a, (a : Y.Flowdir.t)) :: rest ->
          List.iter
            (fun (name_b, (b : Y.Flowdir.t)) ->
              if
                a.priority = b.priority
                && a.actions <> b.actions
                && Openflow.Of_match.intersect a.of_match b.of_match <> None
              then
                add
                  (finding `Warning
                     "flow %s/%s overlaps %s/%s at priority %d with different \
                      actions"
                     switch name_a switch name_b a.priority))
            rest;
          conflicts rest
      in
      conflicts (List.rev !parsed);
      (* Ports. *)
      List.iter
        (fun port ->
          (match Y.Yanc_fs.read_port yfs ~cred ~switch port with
          | Ok info ->
            if info.admin_down then
              add (finding `Info "port %s/port_%d: administratively down" switch port)
          | Error _ ->
            add (finding `Error "port %s/port_%d: unreadable" switch port));
          (* Peer symmetry. *)
          match Y.Yanc_fs.peer_of yfs ~cred ~switch ~port with
          | None -> ()
          | Some (peer_sw, peer_port) -> (
            match Y.Yanc_fs.peer_of yfs ~cred ~switch:peer_sw ~port:peer_port with
            | Some (back_sw, back_port) when back_sw = switch && back_port = port -> ()
            | Some _ | None ->
              add
                (finding `Warning "link %s/port_%d -> %s/port_%d not symmetric"
                   switch port peer_sw peer_port)))
        (Y.Yanc_fs.port_numbers yfs ~cred switch))
    switches;
  List.rev !out

let severity_label = function
  | `Info -> "info"
  | `Warning -> "WARNING"
  | `Error -> "ERROR"

let report findings =
  let buf = Buffer.create 256 in
  List.iter
    (fun f -> Buffer.add_string buf (Printf.sprintf "[%s] %s\n" (severity_label f.severity) f.message))
    findings;
  let bad =
    List.length (List.filter (fun f -> f.severity <> `Info) findings)
  in
  Buffer.add_string buf (Printf.sprintf "-- %d findings, %d problems\n" (List.length findings) bad);
  Buffer.contents buf

let run_to_file yfs ~cred ~out =
  let findings = audit yfs ~cred in
  let fs = Y.Yanc_fs.fs yfs in
  let ( let* ) = Result.bind in
  let* () =
    match Vfs.Path.parent out with
    | Some parent -> Fs.mkdir_p fs ~cred parent
    | None -> Ok ()
  in
  let* () = Fs.write_file fs ~cred out (report findings) in
  Ok (List.length (List.filter (fun f -> f.severity <> `Info) findings))

let app yfs ~cred ~out ~period =
  (* A full audit walks the whole tree; gate the cron behind one
     recursive watch so quiet periods cost a (coalesced, batched) event
     drain instead of a tree walk. *)
  let notifier = Fsnotify.Notifier.create (Y.Yanc_fs.fs yfs) in
  ignore
    (Fsnotify.Notifier.add_watch ~recursive:true notifier
       (Y.Layout.switches_dir ~root:(Y.Yanc_fs.root yfs))
       Fsnotify.Notifier.all);
  let audited_once = ref false in
  let fs_errors = App_intf.fs_errors yfs in
  App_intf.cron ~name:"auditor" ~period (fun ~now:_ ->
      let changed = Fsnotify.Notifier.read_events notifier <> [] in
      if changed || not !audited_once then begin
        audited_once := true;
        App_intf.checked fs_errors "auditor" (Vfs.Path.to_string out)
          (run_to_file yfs ~cred ~out)
      end)
