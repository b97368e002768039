module Y = Yancfs
module P = Packet
module Notifier = Fsnotify.Notifier

type location = { switch : string; port : int }

type hop = { out_port : int; peer : string; peer_in : int }

type port = { no : int; peer_link : (string * int) option; up : bool }

type t = {
  yfs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  notifier : Notifier.t;
  hosts_dir : Vfs.Path.t;
  mutable version : int;  (* 0: not built yet *)
  mutable switches : string list;
  ports : (string, port list) Hashtbl.t;  (* ascending *)
  links : (string, hop list) Hashtbl.t;
  toward : (string, (string, hop array) Hashtbl.t) Hashtbl.t;
  records : (string, P.Mac.t * location) Hashtbl.t;  (* attached hosts, by name *)
  hosts : (P.Mac.t, location) Hashtbl.t;
}

let create ?(cred = Vfs.Cred.root) yfs =
  let root = Y.Yanc_fs.root yfs in
  let notifier = Notifier.create (Y.Yanc_fs.fs yfs) in
  let hosts_dir = Y.Layout.hosts_dir ~root in
  ignore
    (Notifier.add_watch ~recursive:true notifier (Y.Layout.switches_dir ~root)
       ~leaves:[ Y.Schema.peer; Y.Schema.config_port_down; Y.Schema.state_link_down ]
       Notifier.all);
  ignore (Notifier.add_watch ~recursive:true notifier hosts_dir Notifier.all);
  { yfs; cred; notifier; hosts_dir; version = 0; switches = [];
    ports = Hashtbl.create 64; links = Hashtbl.create 64;
    toward = Hashtbl.create 64; records = Hashtbl.create 256;
    hosts = Hashtbl.create 256 }

let close t = Notifier.close t.notifier

(* --- building ----------------------------------------------------------------- *)

let port_of t switch port =
  Option.bind (Hashtbl.find_opt t.ports switch)
    (List.find_opt (fun p -> p.no = port))

(* Every switch's ports, then the live links: a port's peer symlink
   answered by the peer's own, both ports up. *)
let build_links t =
  t.switches <- Y.Yanc_fs.switch_names t.yfs;
  Hashtbl.reset t.ports;
  Hashtbl.reset t.links;
  Hashtbl.reset t.toward;
  List.iter
    (fun switch ->
      Hashtbl.replace t.ports switch
        (List.map
           (fun no ->
             { no; peer_link = Y.Yanc_fs.peer_of t.yfs ~cred:t.cred ~switch ~port:no;
               up = Y.Yanc_fs.port_up t.yfs ~cred:t.cred ~switch no })
           (Y.Yanc_fs.port_numbers t.yfs ~cred:t.cred switch)))
    t.switches;
  Hashtbl.iter
    (fun switch ports ->
      Hashtbl.replace t.links switch
        (List.filter_map
           (fun p ->
             match p with
             | { peer_link = Some (peer, peer_in); up = true; no } -> (
               match port_of t peer peer_in with
               | Some { peer_link = Some back; up = true; _ } when back = (switch, no) ->
                 Some { out_port = no; peer; peer_in }
               | Some _ | None -> None)
             | _ -> None)
           ports))
    t.ports;
  t.version <- t.version + 1

let read_record t name =
  match Y.Yanc_fs.read_host t.yfs ~cred:t.cred name with
  | Ok (mac, _ip, Some (switch, port)) -> Some (mac, { switch; port })
  | Ok (_, _, None) | Error _ -> None

(* A listing replays hosts/ in name order, so for a MAC several records
   carry, the last name's attachment stands. *)
let build_hosts t =
  Hashtbl.reset t.records;
  Hashtbl.reset t.hosts;
  List.iter
    (fun name ->
      Option.iter
        (fun ((mac, loc) as r) ->
          Hashtbl.replace t.records name r;
          Hashtbl.replace t.hosts mac loc)
        (read_record t name))
    (Y.Yanc_fs.host_names t.yfs ~cred:t.cred)

let reindex t mac =
  Hashtbl.remove t.hosts mac;
  Hashtbl.fold (fun name (m, loc) acc -> if m = mac then (name, loc) :: acc else acc)
    t.records []
  |> List.sort compare |> List.rev
  |> function (_, loc) :: _ -> Hashtbl.replace t.hosts mac loc | [] -> ()

let reread_host t name =
  let old = Hashtbl.find_opt t.records name and fresh = read_record t name in
  Hashtbl.remove t.records name;
  Option.iter (Hashtbl.replace t.records name) fresh;
  List.iter (fun (mac, _) -> reindex t mac) (Option.to_list old @ Option.to_list fresh)

(* The one staleness rule: nothing pending costs nothing; an event under
   switches/ (or an overflow) rebuilds the links and drops every
   next-hop table; a host event re-reads that host. *)
let sync t =
  let first = t.version = 0 in
  if first || Notifier.pending t.notifier > 0 then begin
    let links = ref first and all_hosts = ref first and names = ref [] in
    if Notifier.pending t.notifier > 0 then
      List.iter
        (fun (ev : Fsnotify.Event.t) ->
          match
            ev.kind,
            Option.map Vfs.Path.components
              (Vfs.Path.strip_prefix ~prefix:t.hosts_dir ev.path)
          with
          | Fsnotify.Event.Overflow, _ -> links := true; all_hosts := true
          | _, Some (name :: _) -> names := name :: !names
          | _, Some [] -> all_hosts := true
          | _, None -> links := true)
        (Notifier.read_events t.notifier);
    if !links then build_links t;
    if !all_hosts then build_hosts t
    else List.iter (reread_host t) (List.sort_uniq compare !names)
  end

(* --- queries ------------------------------------------------------------------ *)

let version t = sync t; t.version

let switches t = sync t; t.switches

let ports t switch =
  sync t;
  List.map (fun p -> p.no) (Option.value (Hashtbl.find_opt t.ports switch) ~default:[])

let peer t ~switch ~port =
  sync t;
  Option.bind (port_of t switch port) (fun p -> p.peer_link)

let port_up t ~switch ~port =
  sync t;
  Option.fold ~none:false ~some:(fun p -> p.up) (port_of t switch port)

let is_edge t ~switch ~port = peer t ~switch ~port = None

let edge_ports t switch =
  List.filter (fun port -> is_edge t ~switch ~port) (ports t switch)

let links t switch =
  sync t;
  Option.value (Hashtbl.find_opt t.links switch) ~default:[]

(* Cached per destination: one reverse BFS from it, then each switch
   keeps the links whose peer is strictly one step closer. *)
let toward t ~dst_sw =
  sync t;
  match Hashtbl.find_opt t.toward dst_sw with
  | Some table -> table
  | None ->
    let dist = Hashtbl.create 64 in
    Hashtbl.replace dist dst_sw 0;
    let q = Queue.create () in
    Queue.push dst_sw q;
    while not (Queue.is_empty q) do
      let sw = Queue.pop q in
      let d = Hashtbl.find dist sw in
      List.iter
        (fun h ->
          if not (Hashtbl.mem dist h.peer) then begin
            Hashtbl.replace dist h.peer (d + 1);
            Queue.push h.peer q
          end)
        (links t sw)
    done;
    let table = Hashtbl.create 64 in
    Hashtbl.iter
      (fun sw d ->
        if d > 0 then
          Hashtbl.replace table sw
            (Array.of_list
               (List.filter (fun h -> Hashtbl.find_opt dist h.peer = Some (d - 1))
                  (links t sw))))
      dist;
    Hashtbl.replace t.toward dst_sw table;
    table

(* Distance to [dst_sw] strictly falls at every hop, so the walk ends. *)
let path t ~pick ~from_sw ~dst_sw =
  if from_sw = dst_sw then Some []
  else
    let table = toward t ~dst_sw in
    let rec walk sw acc =
      if sw = dst_sw then Some (List.rev acc)
      else
        match Hashtbl.find_opt table sw with
        | None | Some [||] -> None
        | Some hops ->
          let h = pick sw hops in
          walk h.peer (h :: acc)
    in
    walk from_sw []

let host t mac = sync t; Hashtbl.find_opt t.hosts mac

let hosts t =
  sync t;
  Hashtbl.fold (fun mac loc acc -> (mac, loc) :: acc) t.hosts []
  |> List.sort compare
