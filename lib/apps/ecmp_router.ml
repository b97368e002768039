module Y = Yancfs
module P = Packet
module OF = Openflow

let app_name = "ecmpd"

type delivery = Ring | Eventdir

type location = Path_install.location = { switch : string; port : int }

type hop = Path_install.hop = { out_port : int; peer : string; peer_in : int }

type t = {
  yfs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  delivery : delivery;
  tag : string;   (* flow-name namespace: routers on different cluster
                     nodes install into shared path switches, so names
                     must not collide across instances *)
  idle_timeout : int;
  priority : int;
  batch : int;
  hosts : (P.Mac.t, location) Hashtbl.t;
  events : App_intf.Packet_in.t;               (* Eventdir mode *)
  mutable ring : Y.Pktin.consumer option;      (* Ring mode, lazy *)
  (* Topology caches, built lazily from the peer symlinks and rebuilt
     once when a route comes up empty (links changed underneath us). *)
  mutable adj : (string, hop) Hashtbl.t option;
  nexthops : (string, (string, hop array) Hashtbl.t) Hashtbl.t;
  salts : (string, int) Hashtbl.t;
  mutable hosts_loaded : bool;
  mutable paths : int;
  mutable flow_seq : int;
  c_events : Telemetry.Registry.counter;
  c_installs : Telemetry.Registry.counter;
  c_unknown : Telemetry.Registry.counter;
  c_no_route : Telemetry.Registry.counter;
  c_transit : Telemetry.Registry.counter;
  fs_errors : Telemetry.Registry.counter;
}

let create ?(cred = Vfs.Cred.root) ?(delivery = Ring) ?(tag = "")
    ?(idle_timeout = 30) ?(priority = 300) ?(batch = 512) yfs =
  let reg = Telemetry.registry (Y.Yanc_fs.telemetry yfs) in
  { yfs; cred; delivery; tag; idle_timeout; priority; batch;
    hosts = Hashtbl.create 256;
    events = App_intf.Packet_in.create yfs ~cred ~app:app_name; ring = None;
    adj = None; nexthops = Hashtbl.create 64; salts = Hashtbl.create 64;
    hosts_loaded = false; paths = 0; flow_seq = 0;
    c_events = Telemetry.Registry.counter reg "app.ecmpd.events";
    c_installs = Telemetry.Registry.counter reg "app.ecmpd.installs";
    c_unknown = Telemetry.Registry.counter reg "app.ecmpd.unknown_dst";
    c_no_route = Telemetry.Registry.counter reg "app.ecmpd.no_route";
    c_transit = Telemetry.Registry.counter reg "app.ecmpd.transit_miss";
    fs_errors = App_intf.fs_errors yfs }

(* --- topology ---------------------------------------------------------------- *)

let adjacency t =
  match t.adj with
  | Some adj -> adj
  | None ->
    let adj = Path_install.adjacency t.yfs ~cred:t.cred in
    t.adj <- Some adj;
    adj

let refresh_topology t =
  t.adj <- None;
  Hashtbl.reset t.nexthops

(* Cached per destination switch — a fat-tree storm reuses the table
   for every flow to that edge. *)
let nexthop_table t ~dst_sw =
  match Hashtbl.find_opt t.nexthops dst_sw with
  | Some table -> table
  | None ->
    let table = Path_install.next_hops (adjacency t) ~dst_sw in
    Hashtbl.replace t.nexthops dst_sw table;
    table

let salt t sw =
  match Hashtbl.find_opt t.salts sw with
  | Some s -> s
  | None ->
    let s = Hashtbl.hash sw in
    Hashtbl.replace t.salts sw s;
    s

(* Packed.hash is a plain polynomial fold, so fields packed at high bit
   offsets (the transport ports sit at bit 32 of their words) only move
   the hash by multiples of 2^32 — invisible mod a small power-of-two
   hop count. Avalanche the bits before taking the modulus so every
   tuple field influences the low bits. *)
let avalanche h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  h land max_int

(* The ECMP walk: at each switch, index the equal-cost candidates by the
   packed 12-tuple hash mixed with a per-switch salt (without the salt
   every stage of a multi-tier Clos would make the same choice and the
   fabric polarizes onto one path). The hash covers the full tuple, so
   the two directions of a TCP flow may take different paths, but each
   direction is stable. Distance to the destination strictly decreases,
   so the walk terminates. *)
let route t ~hash ~from_sw ~dst_sw =
  let table = nexthop_table t ~dst_sw in
  let rec walk sw acc =
    if sw = dst_sw then Some (List.rev acc)
    else
      match Hashtbl.find_opt table sw with
      | None | Some [||] -> None
      | Some hops ->
        let i = avalanche (hash lxor salt t sw) mod Array.length hops in
        let h = hops.(i) in
        walk h.peer (h :: acc)
  in
  walk from_sw []

(* --- hosts ------------------------------------------------------------------- *)

(* Bootstrap from /net/hosts — the inventory a provisioning system (or
   the scale bench) has already written — then keep learning from
   traffic like any L2 daemon. *)
let load_hosts t =
  t.hosts_loaded <- true;
  List.iter
    (fun name ->
      match Y.Yanc_fs.read_host t.yfs ~cred:t.cred name with
      | Ok (mac, _ip, Some (switch, port)) ->
        Hashtbl.replace t.hosts mac { switch; port }
      | Ok _ | Error _ -> ())
    (Y.Yanc_fs.host_names t.yfs ~cred:t.cred)

let learn t ~switch ~in_port frame =
  let mac = frame.P.Eth.src in
  if (not (P.Mac.is_multicast mac)) && not (Hashtbl.mem t.hosts mac) then
    (* Only edge ports host endpoints. *)
    if Y.Yanc_fs.peer_of t.yfs ~cred:t.cred ~switch ~port:in_port = None then begin
      Hashtbl.replace t.hosts mac { switch; port = in_port };
      let name = Printf.sprintf "host-%012x" (P.Mac.to_int mac) in
      App_intf.checked t.fs_errors name "host"
        (Y.Yanc_fs.upsert_host t.yfs ~cred:t.cred ~name ~mac ~ip:None
           ~attached_to:(switch, in_port) ())
    end

let lookup_host t mac =
  match Hashtbl.find_opt t.hosts mac with
  | Some loc -> Some loc
  | None ->
    if t.hosts_loaded then None
    else begin
      load_hosts t;
      Hashtbl.find_opt t.hosts mac
    end

(* --- installation ------------------------------------------------------------ *)

let install t ~headers ~ingress ~dst_loc ~buffer_id ~data hops =
  t.paths <- t.paths + 1;
  Telemetry.Registry.incr t.c_installs;
  let name () =
    t.flow_seq <- t.flow_seq + 1;
    Printf.sprintf "ecmp%s-%d" t.tag t.flow_seq
  in
  Path_install.install t.yfs ~cred:t.cred ~fs_errors:t.fs_errors ~name
    ~priority:t.priority ~idle_timeout:t.idle_timeout ~headers ~ingress
    ~dst_loc ~buffer_id ~data hops

let process t ~switch ~in_port ~buffer_id ~data frame =
  match frame.P.Eth.payload with
  | P.Eth.Lldp _ -> ()
  | _ when List.exists
             (fun (h : hop) -> h.out_port = in_port)
             (Hashtbl.find_all (adjacency t) switch) ->
    (* A miss on an inter-switch port is a transit packet racing its
       own path: the ingress switch's owner already routed this flow,
       and the rule for this hop is in the commit (or, across cluster
       nodes, the replication) pipeline. Re-routing here would install
       the whole path a second time from mid-fabric — on a sharded
       cluster, once per node the path crosses. Drop it like any
       convergence-window loss and let the rule land. *)
    Telemetry.Registry.incr t.c_events;
    Telemetry.Registry.incr t.c_transit
  | _ -> (
    Telemetry.Registry.incr t.c_events;
    learn t ~switch ~in_port frame;
    let dst = frame.P.Eth.dst in
    match lookup_host t dst with
    | None ->
      (* A routing fabric drops what it has no location for — flooding
         a datacenter-scale storm would melt the control plane. *)
      Telemetry.Registry.incr t.c_unknown
    | Some dst_loc ->
      let headers = P.Headers.of_eth ~in_port frame in
      let ingress = { switch; port = in_port } in
      if dst_loc.switch = switch then
        install t ~headers ~ingress ~dst_loc ~buffer_id ~data []
      else begin
        let hash = OF.Of_match.Packed.(hash (of_headers headers)) in
        let attempt () = route t ~hash ~from_sw:switch ~dst_sw:dst_loc.switch in
        let hops =
          match attempt () with
          | Some hops -> Some hops
          | None ->
            (* Stale adjacency (links changed): rebuild once, retry. *)
            refresh_topology t;
            attempt ()
        in
        match hops with
        | Some hops -> install t ~headers ~ingress ~dst_loc ~buffer_id ~data hops
        | None -> Telemetry.Registry.incr t.c_no_route
      end)

(* --- delivery ---------------------------------------------------------------- *)

let ring_consumer t =
  match t.ring with
  | Some c -> c
  | None ->
    let c = Y.Pktin.subscribe (Y.Yanc_fs.pktin t.yfs) ~name:app_name in
    t.ring <- Some c;
    c

let run_ring t =
  let pk = Y.Yanc_fs.pktin t.yfs in
  let c = ring_consumer t in
  let tracer = Telemetry.tracer (Y.Yanc_fs.telemetry t.yfs) in
  ignore
    (Y.Pktin.drain pk c ~max:t.batch (fun r ->
         ignore (Telemetry.Tracer.resume tracer (Y.Pktin.trace_key r.Y.Pktin.seq));
         Telemetry.Tracer.span tracer ~stage:"app.ecmpd" (fun () ->
             match P.Eth.of_wire r.Y.Pktin.data with
             | None -> ()
             | Some frame ->
               process t ~switch:r.Y.Pktin.switch ~in_port:r.Y.Pktin.in_port
                 ~buffer_id:r.Y.Pktin.buffer_id ~data:r.Y.Pktin.data frame)))

let handle_eventdir t ~switch (ev : Y.Eventdir.event) =
  let tracer = Telemetry.tracer (Y.Yanc_fs.telemetry t.yfs) in
  ignore (Telemetry.Tracer.resume tracer (Y.Layout.trace_key_event ev.seq));
  Telemetry.Tracer.span tracer ~stage:"app.ecmpd" (fun () ->
      match Y.Eventdir.frame_of ev with
      | None -> ()
      | Some frame ->
        process t ~switch ~in_port:ev.in_port ~buffer_id:ev.buffer_id
          ~data:ev.data frame)

let run_eventdir t =
  List.iter
    (fun switch ->
      App_intf.Packet_in.drain t.events ~switch (handle_eventdir t ~switch))
    (Y.Yanc_fs.switch_names t.yfs)

let run t ~now:_ =
  match t.delivery with Ring -> run_ring t | Eventdir -> run_eventdir t

let app t =
  match t.delivery with
  | Ring ->
    (* Parked until the ring holds events — except before the first run,
       which must subscribe. *)
    let pending () =
      match t.ring with
      | None -> true
      | Some c -> Y.Pktin.pending (Y.Yanc_fs.pktin t.yfs) c > 0
    in
    App_intf.daemon ~pending ~name:app_name (fun ~now -> run t ~now)
  | Eventdir -> App_intf.daemon ~name:app_name (fun ~now -> run t ~now)

let paths_installed t = t.paths

let hosts_tracked t = Hashtbl.length t.hosts
