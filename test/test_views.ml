(* Tests for network views (paper §4.2): slicing, the big-switch
   virtualizer, stacking, and namespace isolation (§5.3). *)

module Y = Yancfs
module N = Netsim
module OF = Openflow
module P = Packet
module Fs = Vfs.Fs

let cred = Vfs.Cred.root

let rmdir_failed e = Alcotest.failf "event rmdir: %s" (Vfs.Errno.to_string e)

let pfx s = Option.get (P.Ipv4_addr.Prefix.of_string s)

let controller built =
  let ctl = Yanc.Controller.create ~net:built.N.Topo_gen.net () in
  Yanc.Controller.attach_switches ctl;
  ctl

let ssh_flowspace =
  { OF.Of_match.any with
    OF.Of_match.dl_type = Some 0x0800;
    nw_proto = Some 6;
    tp_dst = Some 22 }

(* A slice of sw1 (all its ports), confined to ssh traffic. *)
let slice_rig () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.3;
  let slicer =
    match
      Views.Slicer.create ~master:(Yanc.Controller.yfs ctl)
        { Views.Slicer.view = "ssh-slice";
          switches = [ "sw1", [] ];
          flowspace = ssh_flowspace;
          priority_cap = 30000 }
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "slicer create: %s" (Vfs.Errno.to_string e)
  in
  Yanc.Controller.add_app ctl (Views.Slicer.app slicer);
  Yanc.Controller.run_for ctl 0.3;
  built, ctl, slicer

let test_slice_mirrors_switch () =
  let _, _, slicer = slice_rig () in
  let vy = Views.Slicer.view_fs slicer in
  Alcotest.(check (list string)) "switch visible in view" [ "sw1" ]
    (Y.Yanc_fs.switch_names vy);
  Alcotest.(check (list int)) "ports mirrored" [ 1; 2 ]
    (Y.Yanc_fs.port_numbers vy ~cred "sw1")

let test_slice_flow_inside_flowspace () =
  let _, ctl, slicer = slice_rig () in
  let vy = Views.Slicer.view_fs slicer in
  (* the tenant writes an ssh flow in its view *)
  let flow =
    { Y.Flowdir.default with
      Y.Flowdir.of_match = { ssh_flowspace with OF.Of_match.nw_dst = Some (pfx "10.0.0.2") };
      actions = [ OF.Action.Output (OF.Action.Physical 2) ];
      priority = 100 }
  in
  (match Y.Yanc_fs.create_flow vy ~cred ~switch:"sw1" ~name:"to-h2" flow with
  | Ok () -> ()
  | Error e -> Alcotest.failf "create: %s" (Vfs.Errno.to_string e));
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check int) "accepted" 1 (Views.Slicer.flows_accepted slicer);
  (* it landed on the master under a slice-prefixed name *)
  let master = Yanc.Controller.yfs ctl in
  Alcotest.(check bool) "master flow exists" true
    (List.mem "s.ssh-slice.to-h2" (Y.Yanc_fs.flow_names master ~cred "sw1"));
  (* and reached hardware *)
  Alcotest.(check int) "in hardware" 1 (List.hd (Yanc.Controller.audit ctl)).hw_rules

let test_slice_rejects_flowspace_escape () =
  let _, ctl, slicer = slice_rig () in
  let vy = Views.Slicer.view_fs slicer in
  (* http is outside the ssh flowspace *)
  let escape =
    { Y.Flowdir.default with
      Y.Flowdir.of_match =
        { OF.Of_match.any with
          OF.Of_match.dl_type = Some 0x0800; nw_proto = Some 6; tp_dst = Some 80 };
      actions = [ OF.Action.Output (OF.Action.Physical 1) ] }
  in
  ignore (Y.Yanc_fs.create_flow vy ~cred ~switch:"sw1" ~name:"http" escape);
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check int) "rejected" 1 (Views.Slicer.flows_rejected slicer);
  let master = Yanc.Controller.yfs ctl in
  Alcotest.(check bool) "nothing on master" false
    (List.mem "s.ssh-slice.http" (Y.Yanc_fs.flow_names master ~cred "sw1"));
  (* the tenant is told via the error file *)
  let vdir = Y.Layout.flow ~root:(Y.Yanc_fs.root vy) ~switch:"sw1" "http" in
  Alcotest.(check bool) "error file" true
    (Fs.exists (Y.Yanc_fs.fs vy) ~cred (Vfs.Path.child vdir "error"))

let test_slice_widens_to_intersection () =
  (* A tenant wildcard flow is narrowed to the flowspace, not rejected. *)
  let _, ctl, slicer = slice_rig () in
  let vy = Views.Slicer.view_fs slicer in
  let broad =
    { Y.Flowdir.default with
      Y.Flowdir.actions = [ OF.Action.Output (OF.Action.Physical 1) ];
      priority = 50000 (* above the cap, must be clamped *) }
  in
  ignore (Y.Yanc_fs.create_flow vy ~cred ~switch:"sw1" ~name:"all" broad);
  Yanc.Controller.run_for ctl 0.3;
  let master = Yanc.Controller.yfs ctl in
  match Y.Yanc_fs.read_flow master ~cred ~switch:"sw1" "s.ssh-slice.all" with
  | Error e -> Alcotest.fail e
  | Ok mflow ->
    Alcotest.(check (option int)) "narrowed to tp 22" (Some 22)
      mflow.Y.Flowdir.of_match.OF.Of_match.tp_dst;
    Alcotest.(check int) "priority clamped" 30000 mflow.Y.Flowdir.priority

let test_slice_rejects_foreign_port () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.3;
  (* slice that owns only port 1 *)
  let slicer =
    Result.get_ok
      (Views.Slicer.create ~master:(Yanc.Controller.yfs ctl)
         { Views.Slicer.view = "narrow"; switches = [ "sw1", [ 1 ] ];
           flowspace = OF.Of_match.any; priority_cap = 30000 })
  in
  Yanc.Controller.add_app ctl (Views.Slicer.app slicer);
  let vy = Views.Slicer.view_fs slicer in
  ignore
    (Y.Yanc_fs.create_flow vy ~cred ~switch:"sw1" ~name:"out2"
       { Y.Flowdir.default with
         Y.Flowdir.actions = [ OF.Action.Output (OF.Action.Physical 2) ] });
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check int) "foreign output rejected" 1 (Views.Slicer.flows_rejected slicer);
  (* Flood rewrites to the allowed ports only *)
  ignore
    (Y.Yanc_fs.create_flow vy ~cred ~switch:"sw1" ~name:"fl"
       { Y.Flowdir.default with
         Y.Flowdir.actions = [ OF.Action.Output OF.Action.Flood ] });
  Yanc.Controller.run_for ctl 0.3;
  let master = Yanc.Controller.yfs ctl in
  match Y.Yanc_fs.read_flow master ~cred ~switch:"sw1" "s.narrow.fl" with
  | Error e -> Alcotest.fail e
  | Ok mflow ->
    Alcotest.(check bool) "flood -> explicit allowed ports" true
      (mflow.Y.Flowdir.actions = [ OF.Action.Output (OF.Action.Physical 1) ])

let test_slice_event_filtering () =
  let built, ctl, slicer = slice_rig () in
  let vy = Views.Slicer.view_fs slicer in
  (* a tenant app subscribes inside the view *)
  ignore
    (Y.Eventdir.subscribe (Y.Yanc_fs.fs vy) ~cred ~root:(Y.Yanc_fs.root vy)
       ~switch:"sw1" ~app:"tenant");
  Yanc.Controller.run_for ctl 0.2;
  (* ssh packet -> miss -> should reach the tenant; http -> filtered *)
  let h2mac = N.Topo_gen.host_mac 2 in
  let send port =
    N.Network.send_from_host built.net "h1"
      [ P.Builder.tcp_syn ~src_mac:(N.Topo_gen.host_mac 1) ~dst_mac:h2mac
          ~src_ip:(N.Topo_gen.host_ip 1) ~dst_ip:(N.Topo_gen.host_ip 2)
          ~src_port:5555 ~dst_port:port ]
  in
  send 22;
  send 80;
  Yanc.Controller.run_for ctl 0.5;
  let events =
    Result.get_ok
      (Y.Eventdir.consume (Y.Yanc_fs.fs vy) ~cred ~root:(Y.Yanc_fs.root vy)
         ~switch:"sw1" ~app:"tenant" ~on_error:rmdir_failed)
  in
  Alcotest.(check int) "only the ssh packet" 1 (List.length events);
  match Y.Eventdir.frame_of (List.hd events) with
  | Some { P.Eth.payload = P.Eth.Ipv4 { P.Ipv4.payload = P.Ipv4.Tcp t; _ }; _ } ->
    Alcotest.(check int) "port 22" 22 t.P.Tcp.dst_port
  | _ -> Alcotest.fail "wrong frame"

(* --- big switch ------------------------------------------------------------------ *)

let bigsw_rig () =
  let built = N.Topo_gen.linear 3 in
  let ctl = controller built in
  let topo = Apps.Topology.create (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo);
  Yanc.Controller.run_for ctl 3.0;
  let bigsw =
    Result.get_ok
      (Views.Big_switch.create ~master:(Yanc.Controller.yfs ctl) ~view:"one-big" ())
  in
  Yanc.Controller.add_app ctl (Views.Big_switch.app bigsw);
  Yanc.Controller.run_for ctl 0.3;
  built, ctl, bigsw

let test_bigswitch_ports () =
  let _, _, bigsw = bigsw_rig () in
  (* 3 switches, 1 host each: 3 edge ports -> 3 virtual ports *)
  let map = Views.Big_switch.port_map bigsw in
  Alcotest.(check int) "3 virtual ports" 3 (List.length map);
  let vy = Views.Big_switch.view_fs bigsw in
  Alcotest.(check (list string)) "one big switch" [ "big0" ]
    (Y.Yanc_fs.switch_names vy);
  Alcotest.(check (list int)) "virtual port numbers" [ 1; 2; 3 ]
    (Y.Yanc_fs.port_numbers vy ~cred "big0")

let test_bigswitch_flow_compilation () =
  let built, ctl, bigsw = bigsw_rig () in
  let vy = Views.Big_switch.view_fs bigsw in
  (* all traffic to h3's address leaves virtual port 3 *)
  let vport3_real = List.assoc 3 (Views.Big_switch.port_map bigsw) in
  ignore
    (Y.Yanc_fs.create_flow vy ~cred ~switch:"big0" ~name:"to-h3"
       { Y.Flowdir.default with
         Y.Flowdir.of_match =
           { OF.Of_match.any with
             OF.Of_match.dl_type = Some 0x0800;
             nw_dst = Some (P.Ipv4_addr.Prefix.host (N.Topo_gen.host_ip 3)) };
         actions = [ OF.Action.Output (OF.Action.Physical 3) ];
         priority = 300 });
  Yanc.Controller.run_for ctl 0.5;
  Alcotest.(check int) "compiled" 1 (Views.Big_switch.flows_compiled bigsw);
  (* per-switch rules landed on the master *)
  let master = Yanc.Controller.yfs ctl in
  let egress_sw = fst vport3_real in
  Alcotest.(check bool) "egress rule exists" true
    (List.exists
       (fun n -> n = "v.one-big.to-h3." ^ egress_sw)
       (Y.Yanc_fs.flow_names master ~cred egress_sw));
  (* the data plane actually delivers along the compiled path, once the
     underlay also knows how to reach h1 (reverse rule for replies) *)
  ignore
    (Y.Yanc_fs.create_flow vy ~cred ~switch:"big0" ~name:"to-h1"
       { Y.Flowdir.default with
         Y.Flowdir.of_match =
           { OF.Of_match.any with
             OF.Of_match.dl_type = Some 0x0800;
             nw_dst = Some (P.Ipv4_addr.Prefix.host (N.Topo_gen.host_ip 1)) };
         actions = [ OF.Action.Output (OF.Action.Physical 1) ];
         priority = 300 });
  (* plus ARP handling via flood both ways *)
  ignore
    (Y.Yanc_fs.create_flow vy ~cred ~switch:"big0" ~name:"arp"
       { Y.Flowdir.default with
         Y.Flowdir.of_match =
           { OF.Of_match.any with OF.Of_match.dl_type = Some 0x0806 };
         actions = [ OF.Action.Output OF.Action.Flood ];
         priority = 200 });
  Yanc.Controller.run_for ctl 0.5;
  let h1 = Option.get (N.Network.host built.net "h1") in
  N.Network.send_from_host built.net "h1"
    (N.Sim_host.ping h1 ~now:(N.Network.now built.net)
       ~dst:(N.Topo_gen.host_ip 3) ~seq:1);
  Alcotest.(check bool) "ping across the virtual big switch" true
    (Yanc.Controller.run_until ctl (fun () -> N.Sim_host.ping_results h1 <> []))

let test_bigswitch_flood_compiles () =
  let _, ctl, bigsw = bigsw_rig () in
  let vy = Views.Big_switch.view_fs bigsw in
  ignore
    (Y.Yanc_fs.create_flow vy ~cred ~switch:"big0" ~name:"multi"
       { Y.Flowdir.default with
         Y.Flowdir.actions =
           [ OF.Action.Output (OF.Action.Physical 1);
             OF.Action.Output (OF.Action.Physical 2) ] });
  Yanc.Controller.run_for ctl 0.3;
  (* multi-output flows are the documented limitation: error, not silence *)
  let vdir = Y.Layout.flow ~root:(Y.Yanc_fs.root vy) ~switch:"big0" "multi" in
  Alcotest.(check bool) "limitation reported" true
    (Fs.exists (Y.Yanc_fs.fs vy) ~cred (Vfs.Path.child vdir "error"))

let test_bigswitch_packet_in_translation () =
  let built, ctl, bigsw = bigsw_rig () in
  let vy = Views.Big_switch.view_fs bigsw in
  ignore
    (Y.Eventdir.subscribe (Y.Yanc_fs.fs vy) ~cred ~root:(Y.Yanc_fs.root vy)
       ~switch:"big0" ~app:"tenant");
  Yanc.Controller.run_for ctl 0.2;
  (* traffic from h2 (edge of sw2) misses and surfaces on the big switch *)
  let h2 = Option.get (N.Network.host built.net "h2") in
  N.Network.send_from_host built.net "h2"
    [ N.Sim_host.arp_probe h2 ~target:(N.Topo_gen.host_ip 1) ];
  Yanc.Controller.run_for ctl 0.5;
  let events =
    Result.get_ok
      (Y.Eventdir.consume (Y.Yanc_fs.fs vy) ~cred ~root:(Y.Yanc_fs.root vy)
         ~switch:"big0" ~app:"tenant" ~on_error:rmdir_failed)
  in
  Alcotest.(check bool) "event surfaced" true (events <> []);
  let vport = (List.hd events).Y.Eventdir.in_port in
  Alcotest.(check (option (pair string int))) "virtual ingress maps to h2's port"
    (Some ("sw2", 3))
    (List.assoc_opt vport (Views.Big_switch.port_map bigsw))

(* --- namespace isolation (paper §5.1/§5.3) -------------------------------------------- *)

let test_namespace_isolation () =
  let built = N.Topo_gen.linear 1 in
  let ctl = controller built in
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.run_for ctl 0.2;
  let alice = Vfs.Cred.make ~uid:100 ~gid:100 () in
  let bob = Vfs.Cred.make ~uid:200 ~gid:200 () in
  let alice_view =
    Result.get_ok (Views.Namespace.provision yfs ~view:"alice" ~owner:alice)
  in
  ignore (Views.Namespace.provision yfs ~view:"bob" ~owner:bob);
  (* alice works in her own view *)
  (match
     Y.Yanc_fs.create_flow alice_view ~cred:alice ~switch:"private-sw"
       ~name:"f" Y.Flowdir.default
   with
  | Error Vfs.Errno.ENOENT -> () (* no switch dir yet: fine, make one *)
  | _ -> ());
  ignore
    (Fs.mkdir (Y.Yanc_fs.fs yfs) ~cred:alice
       (Y.Layout.switch ~root:(Y.Yanc_fs.root alice_view) "private-sw"));
  (match
     Y.Yanc_fs.create_flow alice_view ~cred:alice ~switch:"private-sw" ~name:"f"
       Y.Flowdir.default
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "alice blocked in her own view: %s" (Vfs.Errno.to_string e));
  (* bob cannot enter alice's view *)
  (match Views.Namespace.enter yfs ~cred:bob ~view:"alice" with
  | Error Vfs.Errno.EACCES -> ()
  | Error e -> Alcotest.failf "expected eacces, got %s" (Vfs.Errno.to_string e)
  | Ok _ -> Alcotest.fail "bob entered alice's namespace");
  (* nor read her files *)
  Alcotest.(check bool) "bob cannot read" true
    (Fs.readdir (Y.Yanc_fs.fs yfs) ~cred:bob
       (Y.Layout.switches_dir ~root:(Y.Yanc_fs.root alice_view))
    = Error Vfs.Errno.EACCES);
  (* root sees everything *)
  match Views.Namespace.enter yfs ~cred:Vfs.Cred.root ~view:"alice" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "root blocked: %s" (Vfs.Errno.to_string e)

let test_switch_protected_by_chmod () =
  (* §5.1: "while individual flows can be protected for specific
     processes, so too can an entire switch". *)
  let built = N.Topo_gen.linear 1 in
  let ctl = controller built in
  let fs = Yanc.Controller.fs ctl in
  Yanc.Controller.run_for ctl 0.2;
  let swdir = Y.Layout.switch ~root:Y.Layout.default_root "sw1" in
  ignore (Fs.chmod fs ~cred swdir 0o700);
  let intruder = Vfs.Cred.make ~uid:666 ~gid:666 () in
  Alcotest.(check bool) "flows unreadable" true
    (Fs.readdir fs ~cred:intruder (Y.Layout.flows_dir ~root:Y.Layout.default_root "sw1")
    = Error Vfs.Errno.EACCES);
  Alcotest.(check bool) "cannot write flows" true
    (Fs.mkdir fs ~cred:intruder
       (Y.Layout.flow ~root:Y.Layout.default_root ~switch:"sw1" "evil")
    = Error Vfs.Errno.EACCES)

(* --- stacking: slice on top of a big switch -------------------------------------------- *)

let test_stacked_views () =
  let built, ctl, bigsw = bigsw_rig () in
  ignore built;
  (* slice the virtual big switch: ssh-only tenant on top of the
     virtualized network — "views can be stacked arbitrarily" *)
  let inner =
    Result.get_ok
      (Views.Slicer.create ~master:(Views.Big_switch.view_fs bigsw)
         { Views.Slicer.view = "ssh-on-big"; switches = [ "big0", [] ];
           flowspace = ssh_flowspace; priority_cap = 1000 })
  in
  Yanc.Controller.add_app ctl (Views.Slicer.app inner);
  Yanc.Controller.run_for ctl 0.3;
  let tenant = Views.Slicer.view_fs inner in
  Alcotest.(check string) "doubly nested root"
    "/net/views/one-big/views/ssh-on-big"
    (Vfs.Path.to_string (Y.Yanc_fs.root tenant));
  ignore
    (Y.Yanc_fs.create_flow tenant ~cred ~switch:"big0" ~name:"deep"
       { Y.Flowdir.default with
         Y.Flowdir.of_match = ssh_flowspace;
         actions = [ OF.Action.Output (OF.Action.Physical 1) ];
         priority = 10 });
  Yanc.Controller.run_for ctl 0.5;
  (* flow propagated: tenant -> big0 view -> physical master *)
  let master = Yanc.Controller.yfs ctl in
  let all_master_flows =
    List.concat_map
      (fun sw -> Y.Yanc_fs.flow_names master ~cred sw)
      (Y.Yanc_fs.switch_names master)
  in
  Alcotest.(check bool) "reached physical switches" true
    (List.exists
       (fun n ->
         String.length n > 2 && String.sub n 0 2 = "v.")
       all_master_flows)

(* --- the view sync loop, pinned for both views ------------------------------------ *)

(* Hardware ≡ file system on every master switch, read the way an
   operator does: `cat /yanc/.proc/fsck`. *)
let check_fsck ctl =
  let path = Y.Layout.proc_fsck ~proc:(Y.Procdir.root (Yanc.Controller.proc ctl)) in
  match Fs.read_file (Yanc.Controller.fs ctl) ~cred path with
  | Error e -> Alcotest.failf "fsck: %s" (Vfs.Errno.to_string e)
  | Ok report ->
    if not (String.starts_with ~prefix:"status ok\n" report) then
      Alcotest.failf "fsck diverged:\n%s" report

let out p = [ OF.Action.Output (OF.Action.Physical p) ]

let commit yfs ~switch ~name ?(of_match = OF.Of_match.any) actions =
  match
    Y.Yanc_fs.upsert_flow yfs ~cred ~switch ~name
      { Y.Flowdir.default with Y.Flowdir.of_match; actions; priority = 100 }
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "commit %s: %s" name e

let delete yfs ~switch name =
  match Y.Yanc_fs.delete_flow yfs ~cred ~switch name with
  | Ok () -> ()
  | Error e -> Alcotest.failf "delete %s: %s" name (Vfs.Errno.to_string e)

let actions_of yfs ~switch name =
  match Y.Yanc_fs.read_flow yfs ~cred ~switch name with
  | Ok flow -> Some flow.Y.Flowdir.actions
  | Error _ -> None

let actions = Alcotest.testable (Fmt.Dump.list OF.Action.pp) ( = )

let flows_of yfs ~prefix =
  List.concat_map
    (fun sw ->
      List.filter_map
        (fun n -> if String.starts_with ~prefix n then Some (sw, n) else None)
        (Y.Yanc_fs.flow_names yfs ~cred sw))
    (Y.Yanc_fs.switch_names yfs)

let put_counters ?(packets = 7L) ?(bytes = 700L) yfs ~switch name =
  match Y.Yanc_fs.open_flows yfs ~cred switch with
  | Error e -> Alcotest.failf "open flows: %s" (Vfs.Errno.to_string e)
  | Ok d -> (
    match
      Y.Flowdir.write_counters ~flow:name (Y.Yanc_fs.fs yfs) ~cred d
        ~packets ~bytes ~duration_s:1
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "counters: %s" (Vfs.Errno.to_string e))

let counters_of yfs ~switch name =
  match Y.Yanc_fs.open_flows yfs ~cred switch with
  | Error _ -> None
  | Ok d -> Y.Flowdir.read_counters ~flow:name (Y.Yanc_fs.fs yfs) ~cred d

(* Every packet-out request queued on a master switch, drained. *)
let packet_outs yfs switch =
  Y.Outdir.consume (Y.Yanc_fs.fs yfs) ~cred ~root:(Y.Yanc_fs.root yfs) ~switch
    ~on_error:(fun e -> Alcotest.failf "rmdir: %s" (Vfs.Errno.to_string e))
  |> Result.get_ok
  |> List.map (fun (r : Y.Outdir.request) -> r.actions)

let submit yfs ~switch acts =
  match
    Y.Outdir.submit yfs ~cred ~switch
      ~actions:acts ~data:"frame" ()
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit: %s" (Vfs.Errno.to_string e)

(* A slice of all of sw1 (ports 1, 2), flowspace any, or of [ports]. *)
let plain_slice ?(ports = []) () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.3;
  let slicer =
    Result.get_ok
      (Views.Slicer.create ~master:(Yanc.Controller.yfs ctl)
         { Views.Slicer.view = "v"; switches = [ "sw1", ports ];
           flowspace = OF.Of_match.any; priority_cap = 30000 })
  in
  Yanc.Controller.add_app ctl (Views.Slicer.app slicer);
  Yanc.Controller.run_for ctl 0.3;
  ctl, Yanc.Controller.yfs ctl, Views.Slicer.view_fs slicer, slicer

let test_slice_delete () =
  let ctl, master, vy, _ = plain_slice () in
  commit vy ~switch:"sw1" ~name:"f" (out 2);
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check (list (pair string string))) "installed"
    [ "sw1", "s.v.f" ] (flows_of master ~prefix:"s.v.");
  check_fsck ctl;
  delete vy ~switch:"sw1" "f";
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check (list (pair string string))) "removed" []
    (flows_of master ~prefix:"s.v.");
  check_fsck ctl

let test_slice_counters () =
  let ctl, master, vy, _ = plain_slice () in
  commit vy ~switch:"sw1" ~name:"f" (out 2);
  Yanc.Controller.run_for ctl 0.3;
  put_counters master ~switch:"sw1" "s.v.f";
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check (option (pair int64 int64))) "counters up" (Some (7L, 700L))
    (counters_of vy ~switch:"sw1" "f");
  check_fsck ctl

let test_slice_packet_out () =
  let ctl, master, vy, slicer = plain_slice ~ports:[ 1 ] () in
  submit vy ~switch:"sw1" (out 1);
  submit vy ~switch:"sw1" (out 2);
  Views.Slicer.run slicer ~now:(Yanc.Controller.now ctl);
  Alcotest.(check (list actions)) "in-slice port forwarded, other dropped"
    [ out 1 ] (packet_outs master "sw1");
  Alcotest.(check (list string)) "view spool drained" []
    (Result.get_ok
       (Fs.readdir (Y.Yanc_fs.fs vy) ~cred (Y.Layout.packet_out_dir ~root:(Y.Yanc_fs.root vy) "sw1")));
  check_fsck ctl

let test_slice_recommit () =
  let ctl, master, vy, _ = plain_slice () in
  commit vy ~switch:"sw1" ~name:"f" (out 2);
  Yanc.Controller.run_for ctl 0.3;
  commit vy ~switch:"sw1" ~name:"f" (out 1);
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check (option actions)) "replaced" (Some (out 1))
    (actions_of master ~switch:"sw1" "s.v.f");
  check_fsck ctl

(* A rejected re-commit leaves nothing of the earlier version on the
   master: hardware lacks an invalid flow. *)
let test_slice_rejected_recommit () =
  let ctl, master, vy, _ = plain_slice () in
  commit vy ~switch:"sw1" ~name:"f" (out 2);
  Yanc.Controller.run_for ctl 0.3;
  commit vy ~switch:"sw1" ~name:"f" (out 9);
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check (list (pair string string))) "removed" []
    (flows_of master ~prefix:"s.v.");
  Alcotest.(check bool) "error file" true
    (Fs.exists (Y.Yanc_fs.fs vy) ~cred
       (Vfs.Path.child (Y.Layout.flow ~root:(Y.Yanc_fs.root vy) ~switch:"sw1" "f")
          "error"));
  check_fsck ctl

(* Delete + re-create between two polls restarts the view flow's
   version chain below the number already synced. *)
let test_slice_recreated () =
  let ctl, master, vy, _ = plain_slice () in
  commit vy ~switch:"sw1" ~name:"f" (out 2);
  commit vy ~switch:"sw1" ~name:"f" (out 2);
  Yanc.Controller.run_for ctl 0.3;
  delete vy ~switch:"sw1" "f";
  commit vy ~switch:"sw1" ~name:"f" (out 1);
  Yanc.Controller.run_for ctl 0.3;
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check (option actions)) "re-created flow synced" (Some (out 1))
    (actions_of master ~switch:"sw1" "s.v.f");
  check_fsck ctl

(* One tcp syn from h1 to h2 on a linear:1 rig with 2 hosts: a table
   miss on sw1, so one packet-in on the master. *)
let syn built =
  N.Network.send_from_host built.N.Topo_gen.net "h1"
    [ P.Builder.tcp_syn ~src_mac:(N.Topo_gen.host_mac 1)
        ~dst_mac:(N.Topo_gen.host_mac 2) ~src_ip:(N.Topo_gen.host_ip 1)
        ~dst_ip:(N.Topo_gen.host_ip 2) ~src_port:5555 ~dst_port:22 ]

let drain_view vy ~cred ~app =
  Result.get_ok
    (Y.Eventdir.consume (Y.Yanc_fs.fs vy) ~cred ~root:(Y.Yanc_fs.root vy)
       ~switch:"sw1" ~app ~on_error:rmdir_failed)

(* A packet-in that reaches the master between the slicer's create and
   its first run still reaches the tenant. *)
let test_slice_packet_in_before_run () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.3;
  let slicer =
    Result.get_ok
      (Views.Slicer.create ~master:(Yanc.Controller.yfs ctl)
         { Views.Slicer.view = "v"; switches = [ "sw1", [] ];
           flowspace = OF.Of_match.any; priority_cap = 30000 })
  in
  let vy = Views.Slicer.view_fs slicer in
  ignore
    (Y.Eventdir.subscribe (Y.Yanc_fs.fs vy) ~cred ~root:(Y.Yanc_fs.root vy)
       ~switch:"sw1" ~app:"tenant");
  syn built;
  Yanc.Controller.run_for ctl 0.5;
  Views.Slicer.run slicer ~now:(Yanc.Controller.now ctl);
  Alcotest.(check int) "delivered" 1 (List.length (drain_view vy ~cred ~app:"tenant"))

(* A view owner who plants a symlink in its events/ gets nothing made
   or given away where the link points when a packet-in is republished
   into the view. *)
let test_slice_events_symlink () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.3;
  let master = Yanc.Controller.yfs ctl in
  let slicer =
    Result.get_ok
      (Views.Slicer.create ~master
         { Views.Slicer.view = "v"; switches = [ "sw1", [] ];
           flowspace = OF.Of_match.any; priority_cap = 30000 })
  in
  Yanc.Controller.add_app ctl (Views.Slicer.app slicer);
  let tenant = Vfs.Cred.make ~uid:1000 ~gid:1000 () in
  let vy = Result.get_ok (Views.Namespace.provision master ~view:"v" ~owner:tenant) in
  let events = Y.Layout.events_dir ~root:(Y.Yanc_fs.root vy) "sw1" in
  let master_flows = Y.Layout.flows_dir ~root:(Y.Yanc_fs.root master) "sw1" in
  (match
     Y.Eventdir.subscribe (Y.Yanc_fs.fs vy) ~cred:tenant ~root:(Y.Yanc_fs.root vy)
       ~switch:"sw1" ~app:"tenant"
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "subscribe: %s" (Vfs.Errno.to_string e));
  (match
     Fs.symlink (Y.Yanc_fs.fs vy) ~cred:tenant
       ~target:(Vfs.Path.to_string master_flows) (Vfs.Path.child events "x")
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "symlink: %s" (Vfs.Errno.to_string e));
  let before = Y.Yanc_fs.flow_names master ~cred "sw1" in
  syn built;
  Yanc.Controller.run_for ctl 0.5;
  Alcotest.(check int) "tenant's buffer served" 1
    (List.length (drain_view vy ~cred:tenant ~app:"tenant"));
  Alcotest.(check (list string)) "nothing made behind the link" before
    (Y.Yanc_fs.flow_names master ~cred "sw1");
  check_fsck ctl

let app_fs_errors ctl =
  Telemetry.Registry.value
    (Telemetry.Registry.counter
       (Telemetry.registry (Yanc.Controller.telemetry ctl)) "app.fs_errors")

(* Walks the credential floor refused, read from a snapshot so a
   missing series fails instead of reading 0. *)
let views_refused ctl =
  let reg = Telemetry.registry (Yanc.Controller.telemetry ctl) in
  match Telemetry.Registry.find (Telemetry.Registry.snapshot reg) "views.refused" with
  | Some v -> int_of_float v
  | None -> Alcotest.fail "no registry series views.refused"

let health ctl =
  let reg = Telemetry.registry (Yanc.Controller.telemetry ctl) in
  Telemetry.Health.worst (Telemetry.Health.evaluate (Telemetry.Registry.snapshot reg))

(* A view owner who swaps its switch directory for a symlink to the
   master's own gets the engine to read and write nothing through it:
   the master's flows (one of its own among them) stay as they are,
   and each skip is counted. *)
let test_slice_switch_symlink () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.3;
  let master = Yanc.Controller.yfs ctl in
  let slicer =
    Result.get_ok
      (Views.Slicer.create ~master
         { Views.Slicer.view = "v"; switches = [ "sw1", [] ];
           flowspace = OF.Of_match.any; priority_cap = 30000 })
  in
  Yanc.Controller.add_app ctl (Views.Slicer.app slicer);
  let tenant = Vfs.Cred.make ~uid:1000 ~gid:1000 () in
  let vy = Result.get_ok (Views.Namespace.provision master ~view:"v" ~owner:tenant) in
  (match
     Y.Yanc_fs.upsert_flow vy ~cred:tenant ~switch:"sw1" ~name:"m"
       { Y.Flowdir.default with Y.Flowdir.actions = out 1; priority = 100 }
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "commit: %s" e);
  Yanc.Controller.run_for ctl 0.3;
  let vsw = Y.Layout.switch ~root:(Y.Yanc_fs.root vy) "sw1" in
  let vfs = Y.Yanc_fs.fs vy in
  (match Fs.rmdir ~recursive:true vfs ~cred:tenant vsw with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rmdir: %s" (Vfs.Errno.to_string e));
  (match
     Fs.symlink vfs ~cred:tenant
       ~target:(Vfs.Path.to_string (Y.Layout.switch ~root:(Y.Yanc_fs.root master) "sw1"))
       vsw
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "symlink: %s" (Vfs.Errno.to_string e));
  commit master ~switch:"sw1" ~name:"base" (out 2);
  let before = List.length (Y.Yanc_fs.flow_names master ~cred "sw1") in
  let refused0 = views_refused ctl in
  Yanc.Controller.run_for ctl 1.0;
  Alcotest.(check int) "master flows flat" before
    (List.length (Y.Yanc_fs.flow_names master ~cred "sw1"));
  Alcotest.(check bool) "skips counted" true (views_refused ctl > refused0)

(* --- containment ---------------------------------------------------------------- *)

let tenant = Vfs.Cred.make ~uid:1000 ~gid:1000 ()

let must what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Vfs.Errno.to_string e)

(* Every object under [path], without following symlinks, as (path,
   kind, mode, owner, bytes): what a byte-identical compare needs. *)
let snapshot ?(keep = fun _ -> true) fs path =
  must "fold"
    (Fs.fold fs ~cred path ~init:[] (fun acc p (st : Fs.stat) ->
         if not (keep p) then (acc, `Skip_subtree)
         else
           let bytes =
             if st.kind = Fs.File then Result.value (Fs.read_file fs ~cred p) ~default:"?"
             else ""
           in
           ((Vfs.Path.to_string p, st.kind = Fs.Dir, st.mode, st.uid, st.gid, bytes) :: acc,
            `Continue)))

let web =
  { OF.Of_match.any with
    OF.Of_match.dl_type = Some 0x0800; nw_proto = Some 6; tp_dst = Some 80 }

(* The ssh slice of sw1, its view provisioned to [tenant], and a master
   flow [base] outside the slice's flowspace. *)
let tenant_slice () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.3;
  let master = Yanc.Controller.yfs ctl in
  let slicer =
    Result.get_ok
      (Views.Slicer.create ~master
         { Views.Slicer.view = "v"; switches = [ "sw1", [] ];
           flowspace = ssh_flowspace; priority_cap = 30000 })
  in
  Yanc.Controller.add_app ctl (Views.Slicer.app slicer);
  let vy = Result.get_ok (Views.Namespace.provision master ~view:"v" ~owner:tenant) in
  commit master ~switch:"sw1" ~name:"base" ~of_match:web (out 2);
  Yanc.Controller.run_for ctl 0.3;
  built, ctl, master, vy, Y.Layout.flow ~root:(Y.Yanc_fs.root master) ~switch:"sw1" "base"

(* The engine's run under [ctl] leaves the master's [base] as it was,
   counts what it refused in views.refused and not as a fault, so the
   controller's health is not Crit, and hardware still matches. *)
let base_kept ctl master base =
  let mfs = Y.Yanc_fs.fs master in
  let before = snapshot mfs base in
  let refused0 = views_refused ctl and errors0 = app_fs_errors ctl in
  Yanc.Controller.run_for ctl 0.5;
  Alcotest.(check bool) "master base byte-identical" true (snapshot mfs base = before);
  Alcotest.(check bool) "EXDEV counted" true (views_refused ctl > refused0);
  Alcotest.(check int) "no fault counted" errors0 (app_fs_errors ctl);
  Alcotest.(check bool) "health not Crit" true (health ctl <> Telemetry.Health.Crit);
  check_fsck ctl

(* A tenant's view flow whose error file is a symlink to a master flow
   file: the rejection the engine reports is not written through it. *)
let test_error_file_symlink () =
  let _, ctl, master, vy, base = tenant_slice () in
  (match
     Y.Yanc_fs.upsert_flow vy ~cred:tenant ~switch:"sw1" ~name:"f"
       { Y.Flowdir.default with Y.Flowdir.of_match = web; actions = out 1; priority = 100 }
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "commit: %s" e);
  must "symlink"
    (Fs.symlink (Y.Yanc_fs.fs vy) ~cred:tenant
       ~target:(Vfs.Path.to_string (Vfs.Path.child base "priority"))
       (Vfs.Path.child (Y.Layout.flow ~root:(Y.Yanc_fs.root vy) ~switch:"sw1" "f") "error"));
  base_kept ctl master base

(* A tenant's view flow directory that is a symlink to a master flow:
   nothing is read from it, and no error file is written into it. *)
let test_flow_dir_symlink () =
  let _, ctl, master, vy, base = tenant_slice () in
  must "symlink"
    (Fs.symlink (Y.Yanc_fs.fs vy) ~cred:tenant ~target:(Vfs.Path.to_string base)
       (Y.Layout.flow ~root:(Y.Yanc_fs.root vy) ~switch:"sw1" "x"));
  base_kept ctl master base

(* A tenant that moves its events/ elsewhere in the view and links it
   back still gets its packet-ins: the link stays beneath the view. *)
let test_events_dir_symlink () =
  let built, ctl, _, vy, _ = tenant_slice () in
  let vfs = Y.Yanc_fs.fs vy and vroot = Y.Yanc_fs.root vy in
  let events = Y.Layout.events_dir ~root:vroot "sw1" and moved = Vfs.Path.child vroot "moved" in
  must "subscribe" (Y.Eventdir.subscribe vfs ~cred:tenant ~root:vroot ~switch:"sw1" ~app:"tenant");
  must "rename" (Fs.rename vfs ~cred:tenant ~src:events ~dst:moved);
  must "symlink" (Fs.symlink vfs ~cred:tenant ~target:(Vfs.Path.to_string moved) events);
  syn built;
  Yanc.Controller.run_for ctl 0.5;
  Alcotest.(check int) "delivered through the link" 1
    (List.length (drain_view vy ~cred:tenant ~app:"tenant"))

(* Provisioning a view again does not give away what a symlink the
   owner left in it points at. *)
let test_reprovision_symlink () =
  let _, ctl, master, vy, _ = tenant_slice () in
  let msw = Y.Layout.switch ~root:(Y.Yanc_fs.root master) "sw1" in
  must "symlink"
    (Fs.symlink (Y.Yanc_fs.fs vy) ~cred:tenant ~target:(Vfs.Path.to_string msw)
       (Vfs.Path.child (Y.Yanc_fs.root vy) "x"));
  let errors0 = app_fs_errors ctl in
  ignore (must "provision" (Views.Namespace.provision master ~view:"v" ~owner:tenant));
  Alcotest.(check int) "master switch still root's" 0
    (must "stat" (Fs.stat (Y.Yanc_fs.fs master) ~cred msw)).Fs.uid;
  Alcotest.(check bool) "refusal counted" true (app_fs_errors ctl > errors0)

(* The seeded adversary. Between engine runs the tenant commits flows,
   queues a packet-out, subscribes to its events, and replaces one or
   two directories or files of its view with symlinks: to master paths,
   to another view, by relative ".." chains, or by a chain that stays
   inside the view lexically and leaves it physically. During each
   engine run every op journalled on the file system must lie under the
   view root, under a master flow the engine names, under a master
   packet_out/, or in the engine's own packet-in buffer on the master,
   which its drain consumes; every other master flow stays
   byte-identical, and the network fsck holds at the end. *)
type adversary = {
  ctl : Yanc.Controller.t;
  built : N.Topo_gen.built;
  master : Y.Yanc_fs.t;
  vy : Y.Yanc_fs.t;
  run : unit -> unit;
  engine : string;  (* its packet-in buffer on the master *)
  named : string;  (* the prefix of the master flows it installs *)
  ports : int;  (* view ports 1..ports are valid outputs *)
}

let adversary_rig ~big =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 2 in
  let ctl = controller built in
  let master = Yanc.Controller.yfs ctl in
  let topo = Apps.Topology.create master in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo);
  Yanc.Controller.run_for ctl 1.5;
  List.iter
    (fun sw -> commit master ~switch:sw ~name:"base" ~of_match:web (out 1))
    (Y.Yanc_fs.switch_names master);
  let other = Result.get_ok (Y.Yanc_fs.in_view master ~cred "other") in
  must "other view"
    (Y.Yanc_fs.add_switch other ~cred ~name:"osw" ~dpid:9L ~protocol:"virtual"
       ~n_buffers:0 ~n_tables:1 ~capabilities:[] ~actions:[]);
  let now () = Yanc.Controller.now ctl in
  let run, engine, named, ports =
    if big then
      let b = Result.get_ok (Views.Big_switch.create ~master ~view:"v" ()) in
      (fun () -> Views.Big_switch.run b ~now:(now ())), "bigswitch-v", "v.v.", 4
    else
      let s =
        Result.get_ok
          (Views.Slicer.create ~master
             { Views.Slicer.view = "v"; switches = [ "sw1", []; "sw2", [] ];
               flowspace = { OF.Of_match.any with OF.Of_match.dl_type = Some 0x0800;
                             nw_proto = Some 6 };
               priority_cap = 30000 })
      in
      (fun () -> Views.Slicer.run s ~now:(now ())), "slicer-v", "s.v.", 3
  in
  run ();
  let vy = Result.get_ok (Views.Namespace.provision master ~view:"v" ~owner:tenant) in
  { ctl; built; master; vy; run; engine; named; ports }

let rel_of ~root p =
  Option.map Vfs.Path.components (Vfs.Path.strip_prefix ~prefix:root p)

(* What the tenant may swap for a symlink: switch directories, their
   flows/, packet_out/, events/ and ports/, flow directories, a flow's
   error and counters/, port directories. *)
let victims a =
  let vroot = Y.Yanc_fs.root a.vy in
  snapshot (Y.Yanc_fs.fs a.vy) vroot
  |> List.filter_map (fun (path, _, _, _, _, _) ->
         let path = Vfs.Path.of_string_exn path in
         match rel_of ~root:vroot path with
         | Some
             ( [ "switches"; _ ]
             | [ "switches"; _; ("flows" | "packet_out" | "events" | "ports") ]
             | [ "switches"; _; "flows"; _ ]
             | [ "switches"; _; "flows"; _; ("error" | "counters") ]
             | [ "switches"; _; "ports"; _ ] ) ->
           Some path
         | Some _ | None -> None)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let targets a link =
  let mroot = Y.Yanc_fs.root a.master and vroot = Y.Yanc_fs.root a.vy in
  let up_from dir root =
    String.concat "" (List.init (List.length (Vfs.Path.components dir)
                                 - List.length (Vfs.Path.components root)) (fun _ -> "../"))
  in
  let dir = Option.get (Vfs.Path.parent link) in
  let into_master =
    [ "switches/sw1"; "switches/sw1/flows"; "switches/sw1/flows/base";
      "switches/sw1/flows/base/priority"; "switches/sw2/packet_out"; "switches/sw2/events";
      "views/other/switches/osw"; "views/other/switches/osw/flows" ]
  in
  List.map (fun r -> Vfs.Path.to_string mroot ^ "/" ^ r) into_master
  @ List.map (fun r -> up_from dir mroot ^ r) into_master
  @ List.map (fun r -> up_from dir vroot ^ "deep/s/../../" ^ r) into_master

let tenant_round rng a =
  let vfs = Y.Yanc_fs.fs a.vy and vroot = Y.Yanc_fs.root a.vy in
  let switches = Y.Yanc_fs.switch_names a.vy in
  if switches <> [] then begin
    let switch = pick rng switches in
    for i = 0 to 5 do
      let flow =
        { Y.Flowdir.default with
          Y.Flowdir.of_match =
            { OF.Of_match.any with OF.Of_match.dl_type = Some 0x0800;
              nw_proto = Some (if Random.State.bool rng then 6 else 17);
              tp_dst = Some (Random.State.int rng 1000) };
          actions = out (1 + Random.State.int rng (a.ports + 2));
          priority = 100 }
      in
      ignore (Y.Yanc_fs.upsert_flow a.vy ~cred:tenant ~switch ~name:(Printf.sprintf "f%d" i) flow)
    done;
    ignore
      (Y.Outdir.submit a.vy ~cred:tenant ~switch
         ~actions:(out (1 + Random.State.int rng a.ports)) ~data:"frame" ());
    ignore (Y.Eventdir.subscribe vfs ~cred:tenant ~root:vroot ~switch ~app:"tenant")
  end;
  for _ = 1 to 1 + Random.State.int rng 2 do
    match victims a with
    | [] -> ()
    | vs ->
      let victim = pick rng vs in
      let gone =
        match Fs.lstat vfs ~cred:tenant victim with
        | Ok { Fs.kind = Fs.Dir; _ } -> Fs.rmdir ~recursive:true vfs ~cred:tenant victim
        | Ok _ -> Fs.unlink vfs ~cred:tenant victim
        | Error _ as e -> Result.map ignore e
      in
      if Result.is_ok gone then
        ignore (Fs.symlink vfs ~cred:tenant ~target:(pick rng (targets a victim)) victim)
  done

(* What the driver does between engine runs, forced: fresh counters on
   every flow the engine installed, and a host port flipped, so the
   engine copies counters and rewrites its ports on its next run. *)
let network_round rng a round =
  let mfs = Y.Yanc_fs.fs a.master and mroot = Y.Yanc_fs.root a.master in
  List.iter
    (fun (sw, name) ->
      ignore
        (Result.map
           (fun d ->
             Y.Flowdir.write_counters ~flow:name mfs ~cred d ~packets:(Int64.of_int round)
               ~bytes:(Int64.of_int (100 * round)) ~duration_s:round)
           (Y.Yanc_fs.open_flows a.master ~cred sw)))
    (flows_of a.master ~prefix:a.named);
  let sw = pick rng [ "sw1"; "sw2" ] and port = 1 + Random.State.int rng 2 in
  let file = Y.Layout.port_attr ~root:mroot ~switch:sw ~port Y.Schema.config_port_down in
  let down = Fs.read_file mfs ~cred file = Ok "1" in
  must "port flip" (Fs.write_file mfs ~cred file (if down then "0" else "1"))

let engine_round a ~journal =
  let mroot = Y.Yanc_fs.root a.master and vroot = Y.Yanc_fs.root a.vy in
  let switches = Y.Layout.switches_dir ~root:mroot in
  let engines p =
    match rel_of ~root:switches p with
    | Some (_ :: "flows" :: name :: _) -> String.starts_with ~prefix:a.named name
    | Some (_ :: "packet_out" :: _ :: _) -> true
    | Some (_ :: "events" :: app :: _ :: _) -> app = a.engine
    | Some _ | None -> false
  in
  let allowed p = Vfs.Path.is_prefix vroot p || engines p in
  let others () =
    snapshot (Y.Yanc_fs.fs a.master) switches ~keep:(fun p ->
        match rel_of ~root:switches p with
        | Some ([] | [ _ ] | [ _; "flows" ]) -> true
        | Some (_ :: "flows" :: name :: _) -> not (String.starts_with ~prefix:a.named name)
        | Some _ | None -> false)
  in
  let before = others () in
  journal := [];
  a.run ();
  let ops = !journal in
  journal := [];
  List.iter
    (fun op ->
      let paths =
        match (op : Vfs.Op.t) with
        | Rename { src; dst } -> [ src; dst ]
        | op -> [ Vfs.Op.path op ]
      in
      if not (List.for_all allowed paths) then
        Alcotest.failf "engine op outside the view: %a" Vfs.Op.pp op)
    (List.rev ops);
  if others () <> before then Alcotest.fail "a master flow the engine does not name changed"

let adversary ~big seed =
  let a = adversary_rig ~big in
  let rng = Random.State.make [| seed |] in
  let journal = ref [] and on = ref false in
  ignore (Fs.subscribe (Y.Yanc_fs.fs a.master) (fun op -> if !on then journal := op :: !journal));
  let vfs = Y.Yanc_fs.fs a.vy and vroot = Y.Yanc_fs.root a.vy in
  must "deep" (Fs.mkdir vfs ~cred:tenant (Vfs.Path.child vroot "deep"));
  must "deep/s"
    (Fs.symlink vfs ~cred:tenant ~target:(Vfs.Path.to_string vroot)
       (Vfs.Path.of_components (Vfs.Path.components vroot @ [ "deep"; "s" ])));
  let refused0 = views_refused a.ctl in
  for round = 1 to 3 do
    tenant_round rng a;
    syn a.built;
    Yanc.Controller.run_for a.ctl 0.2;
    network_round rng a round;
    on := true;
    engine_round a ~journal;
    on := false;
    Yanc.Controller.run_for a.ctl 0.2
  done;
  check_fsck a.ctl;
  views_refused a.ctl - refused0

let adversary_seeds ~big () =
  let refused = ref 0 in
  for seed = 1 to 200 do
    refused := !refused + adversary ~big seed
  done;
  (* The adversary must have been refused, or it proved nothing. *)
  Alcotest.(check bool) "escapes refused and counted" true (!refused > 0)

let real bigsw v = List.assoc v (Views.Big_switch.port_map bigsw)

let test_bigswitch_delete () =
  let _, ctl, bigsw = bigsw_rig () in
  let master = Yanc.Controller.yfs ctl in
  let vy = Views.Big_switch.view_fs bigsw in
  commit vy ~switch:"big0" ~name:"f" (out 3);
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check int) "one rule per switch" 3
    (List.length (flows_of master ~prefix:"v.one-big.f."));
  check_fsck ctl;
  delete vy ~switch:"big0" "f";
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check (list (pair string string))) "all removed" []
    (flows_of master ~prefix:"v.one-big.");
  check_fsck ctl

let test_bigswitch_counters () =
  let _, ctl, bigsw = bigsw_rig () in
  let master = Yanc.Controller.yfs ctl in
  let vy = Views.Big_switch.view_fs bigsw in
  commit vy ~switch:"big0" ~name:"f" (out 3);
  Yanc.Controller.run_for ctl 0.3;
  let egress, _ = real bigsw 3 in
  put_counters master ~switch:egress ("v.one-big.f." ^ egress);
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check (option (pair int64 int64))) "egress counters up"
    (Some (7L, 700L)) (counters_of vy ~switch:"big0" "f");
  check_fsck ctl

let test_bigswitch_packet_out () =
  let _, ctl, bigsw = bigsw_rig () in
  let master = Yanc.Controller.yfs ctl in
  let vy = Views.Big_switch.view_fs bigsw in
  submit vy ~switch:"big0" (out 3);
  Views.Big_switch.run bigsw ~now:(Yanc.Controller.now ctl);
  let sw, port = real bigsw 3 in
  List.iter
    (fun s ->
      Alcotest.(check (list actions)) ("packet-out on " ^ s)
        (if s = sw then [ out port ] else [])
        (packet_outs master s))
    (Y.Yanc_fs.switch_names master);
  check_fsck ctl

let test_bigswitch_recommit () =
  let _, ctl, bigsw = bigsw_rig () in
  let master = Yanc.Controller.yfs ctl in
  let vy = Views.Big_switch.view_fs bigsw in
  commit vy ~switch:"big0" ~name:"f" (out 3);
  Yanc.Controller.run_for ctl 0.3;
  commit vy ~switch:"big0" ~name:"f" (out 1);
  Yanc.Controller.run_for ctl 0.3;
  let sw1, p1 = real bigsw 1 and sw3, p3 = real bigsw 3 in
  Alcotest.(check (option actions)) "new egress" (Some (out p1))
    (actions_of master ~switch:sw1 ("v.one-big.f." ^ sw1));
  Alcotest.(check bool) "old egress rule gone" false
    (actions_of master ~switch:sw3 ("v.one-big.f." ^ sw3) = Some (out p3));
  check_fsck ctl

let test_bigswitch_recreated () =
  let _, ctl, bigsw = bigsw_rig () in
  let master = Yanc.Controller.yfs ctl in
  let vy = Views.Big_switch.view_fs bigsw in
  commit vy ~switch:"big0" ~name:"f" (out 3);
  commit vy ~switch:"big0" ~name:"f" (out 3);
  Yanc.Controller.run_for ctl 0.3;
  delete vy ~switch:"big0" "f";
  commit vy ~switch:"big0" ~name:"f" (out 1);
  Yanc.Controller.run_for ctl 0.3;
  Yanc.Controller.run_for ctl 0.3;
  let sw1, p1 = real bigsw 1 in
  Alcotest.(check (option actions)) "re-created flow synced" (Some (out p1))
    (actions_of master ~switch:sw1 ("v.one-big.f." ^ sw1));
  check_fsck ctl

(* The steady-state poll: linear:2 with 2 hosts per switch, 50
   committed view flows nobody changes, one run of the view. *)
let crossings ctl =
  Telemetry.Registry.value
    (Telemetry.Registry.counter (Fs.registry (Yanc.Controller.fs ctl))
       "vfs.crossings")

let poll_rig () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 2 in
  let ctl = controller built in
  let topo = Apps.Topology.create (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo);
  Yanc.Controller.run_for ctl 3.0;
  ctl

let fifty vy ~switch ~port =
  for i = 0 to 49 do
    commit vy ~switch ~name:(Printf.sprintf "f%d" i)
      ~of_match:{ OF.Of_match.any with OF.Of_match.dl_type = Some 0x0800;
                  nw_proto = Some 6; tp_dst = Some (1000 + i) }
      (out (port i))
  done

let one_run ctl run =
  let c0 = crossings ctl in
  run ~now:(Yanc.Controller.now ctl);
  crossings ctl - c0

let test_slice_poll_cost () =
  let ctl = poll_rig () in
  let slicer =
    Result.get_ok
      (Views.Slicer.create ~master:(Yanc.Controller.yfs ctl)
         { Views.Slicer.view = "v"; switches = [ "sw1", [] ];
           flowspace = OF.Of_match.any; priority_cap = 30000 })
  in
  Yanc.Controller.add_app ctl (Views.Slicer.app slicer);
  fifty (Views.Slicer.view_fs slicer) ~switch:"sw1" ~port:(fun i -> 1 + (i mod 2));
  Yanc.Controller.run_for ctl 0.5;
  Alcotest.(check int) "all accepted" 50 (Views.Slicer.flows_accepted slicer);
  let cost = one_run ctl (Views.Slicer.run slicer) in
  Alcotest.(check bool) (Printf.sprintf "%d crossings <= 155" cost) true (cost <= 155);
  (* Reported counters are copied once; unchanged ones cost no writes. *)
  let master = Yanc.Controller.yfs ctl in
  for i = 0 to 49 do
    put_counters master ~switch:"sw1" (Printf.sprintf "s.v.f%d" i)
  done;
  ignore (one_run ctl (Views.Slicer.run slicer));
  let cost = one_run ctl (Views.Slicer.run slicer) in
  Alcotest.(check bool)
    (Printf.sprintf "%d crossings <= 155 with counters copied" cost)
    true (cost <= 155);
  put_counters ~packets:9L ~bytes:900L master ~switch:"sw1" "s.v.f7";
  let cost = one_run ctl (Views.Slicer.run slicer) in
  Alcotest.(check bool)
    (Printf.sprintf "%d crossings <= 158 for one changed flow" cost)
    true (cost <= 158);
  let vy = Views.Slicer.view_fs slicer in
  Alcotest.(check (option (pair int64 int64))) "changed counters up"
    (Some (9L, 900L)) (counters_of vy ~switch:"sw1" "f7");
  Alcotest.(check (option (pair int64 int64))) "unchanged counters kept"
    (Some (7L, 700L)) (counters_of vy ~switch:"sw1" "f8")

let test_bigswitch_poll_cost () =
  let ctl = poll_rig () in
  let bigsw =
    Result.get_ok
      (Views.Big_switch.create ~master:(Yanc.Controller.yfs ctl) ~view:"big" ())
  in
  Yanc.Controller.add_app ctl (Views.Big_switch.app bigsw);
  Yanc.Controller.run_for ctl 0.3;
  fifty (Views.Big_switch.view_fs bigsw) ~switch:"big0" ~port:(fun i -> 1 + (i mod 4));
  Yanc.Controller.run_for ctl 0.5;
  Alcotest.(check int) "all compiled" 50 (Views.Big_switch.flows_compiled bigsw);
  let cost = one_run ctl (Views.Big_switch.run bigsw) in
  Alcotest.(check bool) (Printf.sprintf "%d crossings <= 157" cost) true (cost <= 157)

let () =
  Alcotest.run "views"
    [ ( "slicer",
        [ Alcotest.test_case "mirrors switch" `Quick test_slice_mirrors_switch;
          Alcotest.test_case "accepts in-space flows" `Quick
            test_slice_flow_inside_flowspace;
          Alcotest.test_case "rejects escapes" `Quick test_slice_rejects_flowspace_escape;
          Alcotest.test_case "narrows wildcards, clamps priority" `Quick
            test_slice_widens_to_intersection;
          Alcotest.test_case "port confinement" `Quick test_slice_rejects_foreign_port;
          Alcotest.test_case "event filtering" `Quick test_slice_event_filtering ] );
      ( "big-switch",
        [ Alcotest.test_case "virtual ports" `Quick test_bigswitch_ports;
          Alcotest.test_case "flow compilation + ping" `Quick
            test_bigswitch_flow_compilation;
          Alcotest.test_case "multi-output limitation" `Quick
            test_bigswitch_flood_compiles;
          Alcotest.test_case "packet-in translation" `Quick
            test_bigswitch_packet_in_translation ] );
      ( "isolation",
        [ Alcotest.test_case "namespaces" `Quick test_namespace_isolation;
          Alcotest.test_case "chmod a switch" `Quick test_switch_protected_by_chmod ] );
      "stacking", [ Alcotest.test_case "slice on big switch" `Quick test_stacked_views ];
      ( "sync loop",
        [ Alcotest.test_case "slicer delete" `Quick test_slice_delete;
          Alcotest.test_case "slicer counters" `Quick test_slice_counters;
          Alcotest.test_case "slicer packet-out" `Quick test_slice_packet_out;
          Alcotest.test_case "slicer re-commit" `Quick test_slice_recommit;
          Alcotest.test_case "slicer rejected re-commit" `Quick
            test_slice_rejected_recommit;
          Alcotest.test_case "slicer re-created flow" `Quick test_slice_recreated;
          Alcotest.test_case "slicer poll cost" `Quick test_slice_poll_cost;
          Alcotest.test_case "slicer packet-in before first run" `Quick
            test_slice_packet_in_before_run;
          Alcotest.test_case "slicer events symlink" `Quick test_slice_events_symlink;
          Alcotest.test_case "slicer switch symlink" `Quick test_slice_switch_symlink;
          Alcotest.test_case "big switch delete" `Quick test_bigswitch_delete;
          Alcotest.test_case "big switch counters" `Quick test_bigswitch_counters;
          Alcotest.test_case "big switch packet-out" `Quick test_bigswitch_packet_out;
          Alcotest.test_case "big switch re-commit" `Quick test_bigswitch_recommit;
          Alcotest.test_case "big switch re-created flow" `Quick
            test_bigswitch_recreated;
          Alcotest.test_case "big switch poll cost" `Quick test_bigswitch_poll_cost ] );
      ( "containment",
        [ Alcotest.test_case "error file symlink" `Quick test_error_file_symlink;
          Alcotest.test_case "flow directory symlink" `Quick test_flow_dir_symlink;
          Alcotest.test_case "re-provision symlink" `Quick test_reprovision_symlink;
          Alcotest.test_case "events directory symlink" `Quick test_events_dir_symlink;
          Alcotest.test_case "slicer adversary, 200 seeds" `Quick
            (adversary_seeds ~big:false);
          Alcotest.test_case "big switch adversary, 200 seeds" `Quick
            (adversary_seeds ~big:true) ] ) ]
