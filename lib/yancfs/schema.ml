module Path = Vfs.Path
module Fs = Vfs.Fs

type kind =
  | Root
  | Hosts_dir
  | Host
  | Host_attr
  | Switches_dir
  | Switch
  | Switch_attr
  | Switch_counters
  | Flows_dir
  | Flow
  | Flow_attr
  | Ports_dir
  | Port
  | Port_attr
  | Events_dir
  | Event_buffer
  | Event
  | Event_attr
  | Views_dir
  | Not_yanc

let kind_to_string = function
  | Root -> "root"
  | Hosts_dir -> "hosts_dir"
  | Host -> "host"
  | Host_attr -> "host_attr"
  | Switches_dir -> "switches_dir"
  | Switch -> "switch"
  | Switch_attr -> "switch_attr"
  | Switch_counters -> "switch_counters"
  | Flows_dir -> "flows_dir"
  | Flow -> "flow"
  | Flow_attr -> "flow_attr"
  | Ports_dir -> "ports_dir"
  | Port -> "port"
  | Port_attr -> "port_attr"
  | Events_dir -> "events_dir"
  | Event_buffer -> "event_buffer"
  | Event -> "event"
  | Event_attr -> "event_attr"
  | Views_dir -> "views_dir"
  | Not_yanc -> "not_yanc"

(* Classification walks the components below a yanc root; "views/<v>"
   recurses, so deeply stacked views cost only the path length. *)
let rec classify_rel = function
  | [] -> Root
  | [ "hosts" ] -> Hosts_dir
  | [ "hosts"; _ ] -> Host
  | "hosts" :: _ :: _ -> Host_attr
  | [ "switches" ] -> Switches_dir
  | [ "switches"; _ ] -> Switch
  | [ "switches"; _; "flows" ] -> Flows_dir
  | [ "switches"; _; "flows"; _ ] -> Flow
  | "switches" :: _ :: "flows" :: _ :: _ -> Flow_attr
  | [ "switches"; _; "ports" ] -> Ports_dir
  | [ "switches"; _; "ports"; _ ] -> Port
  | "switches" :: _ :: "ports" :: _ :: _ -> Port_attr
  | [ "switches"; _; "counters" ] -> Switch_counters
  | "switches" :: _ :: "counters" :: _ -> Switch_attr
  | [ "switches"; _; "events" ] -> Events_dir
  | [ "switches"; _; "events"; _ ] -> Event_buffer
  | [ "switches"; _; "events"; _; _ ] -> Event
  | "switches" :: _ :: "events" :: _ :: _ :: _ -> Event_attr
  | [ "switches"; _; "packet_out" ] -> Events_dir
  | [ "switches"; _; "packet_out"; _ ] -> Event
  | "switches" :: _ :: "packet_out" :: _ :: _ -> Event_attr
  | [ "switches"; _; _ ] -> Switch_attr
  | "switches" :: _ :: _ :: _ -> Switch_attr
  | [ "views" ] -> Views_dir
  | "views" :: _ :: rest -> classify_rel rest
  | _ -> Not_yanc

let classify ~root path =
  match Path.strip_prefix ~prefix:root path with
  | None -> Not_yanc
  | Some rel -> classify_rel (Path.components rel)

(* The innermost root: strip the master root, then every "views/<v>"
   prefix that is followed by yanc structure. *)
let enclosing_root ~root path =
  match Path.strip_prefix ~prefix:root path with
  | None -> None
  | Some rel ->
    let rec go acc = function
      | "views" :: v :: rest -> go (acc @ [ "views"; v ]) rest
      | _ -> acc
    in
    Some (Path.append root (Path.of_components (go [] (Path.components rel))))

let is_removable_object = function
  | Switch | Host | Flow | Port | Event_buffer | Event -> true
  | Root -> true (* a view directory *)
  | Hosts_dir | Host_attr | Switches_dir | Switch_attr | Switch_counters
  | Flows_dir | Flow_attr | Ports_dir | Port_attr | Events_dir | Event_attr
  | Views_dir | Not_yanc -> false

let auto_children = function
  | Root -> [ "hosts"; "switches"; "views" ]
  | Switch -> [ "counters"; "events"; "flows"; "packet_out"; "ports" ]
  | Flow | Port -> [ "counters" ]
  | Hosts_dir | Host | Host_attr | Switches_dir | Switch_attr | Switch_counters
  | Flows_dir | Flow_attr | Ports_dir | Port_attr | Events_dir | Event_buffer
  | Event | Event_attr | Views_dir | Not_yanc -> []

(* [peer] may only point at a port directory (of any switch, in any
   view). Targets are resolved like the VFS does: absolute, or relative
   to the link's parent. *)
let peer_target_ok ~root ~link_path ~target =
  match Path.of_string target with
  | Error _ -> false
  | Ok tpath ->
    let resolved =
      if String.length target > 0 && target.[0] = '/' then tpath
      else
        match Path.parent link_path with
        | Some parent -> Path.of_components (Path.components parent @ Path.components tpath)
        | None -> tpath
    in
    (match classify ~root resolved with Port -> true | _ -> false)

let attach fs ~root =
  (* Recursive rmdir for typed objects. *)
  Vfs.Fs.set_rmdir_policy fs (fun path ->
      is_removable_object (classify ~root path));
  (* peer symlinks must name ports; other symlinks are unrestricted. *)
  Vfs.Fs.set_symlink_policy fs (fun path ~target ->
      match Path.basename path, classify ~root path with
      | Some "peer", Port_attr -> peer_target_ok ~root ~link_path:path ~target
      | _ -> true);
  (* Auto-create children of typed directories. The hook runs inside
     emit; the nested mkdirs re-enter the hook but their classifications
     yield no further children, so recursion terminates. *)
  (* The hook's own FS calls are kernel-internal: they must not count as
     application syscalls in the §8.1 cost model. *)
  Fs.subscribe fs (fun op ->
      Fs.suspended fs @@ fun () ->
      match op with
      | Vfs.Op.Mkdir { path; _ } ->
        let kind = classify ~root path in
        (match auto_children kind with
        | [] -> ()
        | children ->
          (* Children belong to whoever created the typed directory, so
             e.g. a tenant creating a switch in its view can populate
             the flows/ that appeared under it. *)
          let owner =
            match Fs.stat fs ~cred:Vfs.Cred.root path with
            | Ok st -> Some (st.Fs.uid, st.Fs.gid)
            | Error _ -> None
          in
          List.iter
            (fun child ->
              let cpath = Path.child path child in
              (match Fs.mkdir fs ~cred:Vfs.Cred.root cpath with
              | Ok () -> (
                match owner with
                | Some (uid, gid) ->
                  ignore (Fs.chown fs ~cred:Vfs.Cred.root cpath ~uid ~gid)
                | None -> ())
              | Error _ -> ()))
            children)
      | _ -> ())
