module Y = Yancfs
module P = Packet
module OF = Openflow

let app_name = "ecmpd"

type t = {
  yfs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  tag : string;   (* flow-name namespace: routers on different cluster
                     nodes install into shared path switches, so names
                     must not collide across instances *)
  idle_timeout : int;
  priority : int;
  batch : int;
  topo : Topo_view.t;
  mutable ring : Y.Pktin.consumer option;      (* lazy *)
  mutable paths : int;
  mutable flow_seq : int;
  c_events : Telemetry.Registry.counter;
  c_installs : Telemetry.Registry.counter;
  c_unknown : Telemetry.Registry.counter;
  c_no_route : Telemetry.Registry.counter;
  c_transit : Telemetry.Registry.counter;
  fs_errors : Telemetry.Registry.counter;
}

let create ?(cred = Vfs.Cred.root) ?(tag = "") ?(idle_timeout = 30)
    ?(priority = 300) ?(batch = 512) yfs =
  let reg = Telemetry.registry (Y.Yanc_fs.telemetry yfs) in
  { yfs; cred; tag; idle_timeout; priority; batch;
    topo = Topo_view.create ~cred yfs; ring = None;
    paths = 0; flow_seq = 0;
    c_events = Telemetry.Registry.counter reg "app.ecmpd.events";
    c_installs = Telemetry.Registry.counter reg "app.ecmpd.installs";
    c_unknown = Telemetry.Registry.counter reg "app.ecmpd.unknown_dst";
    c_no_route = Telemetry.Registry.counter reg "app.ecmpd.no_route";
    c_transit = Telemetry.Registry.counter reg "app.ecmpd.transit_miss";
    fs_errors = App_intf.fs_errors yfs }

(* --- routing ----------------------------------------------------------------- *)

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

(* The ECMP pick: at each switch, index the equal-cost candidates by
   the packed 12-tuple hash mixed with a per-switch salt (without the
   salt every stage of a multi-tier Clos would make the same choice and
   the fabric polarizes onto one path). The hash covers the full tuple,
   so the two directions of a TCP flow may take different paths, but
   each direction is stable. *)
let pick hash sw hops =
  hops.(avalanche (hash lxor Hashtbl.hash sw) mod Array.length hops)

(* --- hosts ------------------------------------------------------------------- *)

(* Locations come from /net/hosts — the inventory a provisioning system
   (or the scale bench) has already written — through the view; a
   source seen on an edge port that the view does not know yet is
   published there, like any L2 daemon learns. *)
let learn t ~switch ~in_port frame =
  let mac = frame.P.Eth.src in
  if (not (P.Mac.is_multicast mac)) && Topo_view.host t.topo mac = None then begin
    let name = Printf.sprintf "host-%012x" (P.Mac.to_int mac) in
    App_intf.checked t.fs_errors name "host"
      (Y.Yanc_fs.upsert_host t.yfs ~cred:t.cred ~name ~mac ~ip:None
         ~attached_to:(switch, in_port) ())
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
  | _ when not (Topo_view.is_edge t.topo ~switch ~port:in_port) ->
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
    match Topo_view.host t.topo frame.P.Eth.dst with
    | None ->
      (* A routing fabric drops what it has no location for — flooding
         a datacenter-scale storm would melt the control plane. *)
      Telemetry.Registry.incr t.c_unknown
    | Some dst_loc -> (
      let headers = P.Headers.of_eth ~in_port frame in
      let ingress = Topo_view.{ switch; port = in_port } in
      let hash = OF.Of_match.Packed.(hash (of_headers headers)) in
      match
        Topo_view.path t.topo ~pick:(pick hash) ~from_sw:switch ~dst_sw:dst_loc.switch
      with
      | Some hops -> install t ~headers ~ingress ~dst_loc ~buffer_id ~data hops
      | None -> Telemetry.Registry.incr t.c_no_route))

(* --- delivery ---------------------------------------------------------------- *)

let ring_consumer t =
  match t.ring with
  | Some c -> c
  | None ->
    let c = Y.Pktin.subscribe (Y.Yanc_fs.pktin t.yfs) in
    t.ring <- Some c;
    c

let run t ~now:_ =
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

let app t =
  (* Parked until the ring holds events — except before the first run,
     which must subscribe. *)
  let pending () =
    match t.ring with
    | None -> true
    | Some c -> Y.Pktin.pending (Y.Yanc_fs.pktin t.yfs) c > 0
  in
  App_intf.daemon ~pending ~name:app_name (fun ~now -> run t ~now)

let paths_installed t = t.paths

let hosts_tracked t = List.length (Topo_view.hosts t.topo)
