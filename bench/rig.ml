(* The storm rig behind E19, E20, E21 and the smoke storms: a k-ary fat
   tree, periodic stats polls off (a storm measures the packet-in path,
   not the counter refresh), every handshake complete, the fabric
   inventory provisioned, and an ECMP router — on one controller or on
   every node of a sharded cluster. One drive loop runs a seeded storm
   through either form. *)

open Harness

type t = {
  built : N.Topo_gen.built;
  net : N.Network.t;
  hosts : int;
  round : tick:float -> unit;
      (* one control round; idle time advances by [tick] only when the
         data plane is quiet *)
}

let tuning =
  { Driver.Driver_intf.default_tuning with
    Driver.Driver_intf.stats_interval = 0. }

(* Provision the fabric inventory straight into the FS: peer symlinks
   for every inter-switch link, /net/hosts entries with attachment
   points. A topology daemon would discover the same facts with
   O(links) LLDP probes; pre-provisioning keeps discovery out of the
   measurement, as a datacenter's inventory system would. A failed
   write fails the run. *)
let provision yfs (built : N.Topo_gen.built) =
  let sw = Y.Yanc_fs.switch_name_of_dpid in
  let must what = function
    | Ok () -> ()
    | Error e -> failwith ("provision: " ^ what ^ ": " ^ Vfs.Errno.message e)
  in
  List.iter
    (function
      | N.Network.Sw (d1, p1), N.Network.Sw (d2, p2) ->
        must "set_peer"
          (Y.Yanc_fs.set_peer yfs ~cred ~switch:(sw d1) ~port:p1
             ~peer:(Some (sw d2, p2)));
        must "set_peer"
          (Y.Yanc_fs.set_peer yfs ~cred ~switch:(sw d2) ~port:p2
             ~peer:(Some (sw d1, p1)))
      | N.Network.Sw (d, p), N.Network.Hst h
      | N.Network.Hst h, N.Network.Sw (d, p) ->
        let i = int_of_string (String.sub h 1 (String.length h - 1)) in
        must "upsert_host"
          (Y.Yanc_fs.upsert_host yfs ~cred ~name:h ~mac:(N.Topo_gen.host_mac i)
             ~ip:(Some (N.Topo_gen.host_ip i)) ~attached_to:(sw d, p) ())
      | N.Network.Hst _, N.Network.Hst _ -> ())
    (N.Network.link_endpoints built.N.Topo_gen.net)

let make built round =
  { built; net = built.N.Topo_gen.net;
    hosts = List.length built.N.Topo_gen.host_names; round }

let controller ~k () =
  let built = N.Topo_gen.fat_tree ~k () in
  let net = built.N.Topo_gen.net in
  let ctl = Yanc.Controller.create ~tuning ~net () in
  Yanc.Controller.attach_switches ctl;
  (* complete every handshake (port dirs must exist before set_peer) *)
  Yanc.Controller.run_for ctl 0.6;
  let yfs = Yanc.Controller.yfs ctl in
  provision yfs built;
  Yanc.Controller.add_app ctl
    (Apps.Ecmp_router.app (Apps.Ecmp_router.create yfs));
  let round ~tick =
    Yanc.Controller.step ctl;
    N.Network.run net;
    if N.Network.pending_events net = 0 then N.Network.advance_idle net tick
  in
  (make built round, ctl)

let cluster ?(tracing = true) ~n ~k () =
  let built = N.Topo_gen.fat_tree ~k () in
  let c = Yanc.Cluster.create ~tracing ~tuning ~n ~net:built.N.Topo_gen.net () in
  (* boot: seeded leases, first reconcile beats attach every shard *)
  if not (Yanc.Cluster.run_until ~tick:0.01 c (fun () -> Yanc.Cluster.converged c))
  then failwith "rig: cluster failed to converge at boot";
  (* provision once, via node 0's replica; peers and hosts are not
     shard-routed, so replication carries them to every node *)
  provision (Yanc.Controller.yfs (Yanc.Cluster.controller c 0)) built;
  Yanc.Cluster.run_for ~tick:0.01 c 0.2;
  (* one ECMP router per node, tagged so path flows installed by
     different nodes on a shared switch never collide by name *)
  let idx = ref 0 in
  Yanc.Cluster.add_app c (fun ctl ->
      let tag = Printf.sprintf "-n%d" !idx in
      incr idx;
      Apps.Ecmp_router.app
        (Apps.Ecmp_router.create ~tag (Yanc.Controller.yfs ctl)));
  (make built (fun ~tick -> Yanc.Cluster.step ~tick c), c)

(* A seeded storm over the rig's hosts, starting now. *)
let workload t ~rate ~seed =
  N.Workload.create
    ~profile:{ N.Workload.default_profile with N.Workload.rate }
    ~start:(N.Network.now t.net) ~seed ~hosts:t.hosts ()

(* Drive the storm off the sim clock: inject every arrival due by now,
   run one round (sim time stalls while the controller catches up —
   natural backpressure), then a quiet tail of 50 ticks lets in-flight
   packet-ins route. Returns the arrivals injected. *)
let drive ?(tick = 0.005) t wl ~arrivals =
  let injected = ref 0 in
  while !injected < arrivals do
    injected :=
      !injected + N.Workload.inject_until wl ~net:t.net ~upto:(N.Network.now t.net);
    t.round ~tick
  done;
  let deadline = N.Network.now t.net +. (tick *. 50.) in
  while N.Network.now t.net < deadline do
    t.round ~tick
  done;
  !injected
