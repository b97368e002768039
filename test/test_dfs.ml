(* Tests for the distributed file-system layer (paper §6): replication,
   consistency models, partitions, and the distributed-controller
   proof of concept. *)

module Fs = Vfs.Fs
module Path = Vfs.Path
module Y = Yancfs

let cred = Vfs.Cred.root

let p = Path.of_string_exn

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Vfs.Errno.to_string e)

(* A [dfs.*] series of the replication stream, which reports into
   replica 0's registry. *)
let dfs_series c name =
  let reg = Fs.registry (Dfs.Cluster.node c 0) in
  match
    Telemetry.Registry.find (Telemetry.Registry.snapshot reg) ("dfs." ^ name)
  with
  | Some v -> v
  | None -> Alcotest.failf "missing series dfs.%s" name

let dfs_count c name = int_of_float (dfs_series c name)

let read_on node path =
  match Fs.read_file node ~cred (p path) with
  | Ok v -> Some v
  | Error _ -> None

let test_sequential_everywhere_at_once () =
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.Sequential ~n:3 () in
  ok (Fs.mkdir (Dfs.Cluster.node c 0) ~cred (p "/net"));
  ok (Fs.write_file (Dfs.Cluster.node c 0) ~cred (p "/net/flag") "up");
  (* no advance needed: sequential writes block until replicated *)
  Alcotest.(check (option string)) "node 1 sees it" (Some "up")
    (read_on (Dfs.Cluster.node c 1) "/net/flag");
  Alcotest.(check (option string)) "node 2 sees it" (Some "up")
    (read_on (Dfs.Cluster.node c 2) "/net/flag");
  Alcotest.(check bool) "converged" true (Dfs.Cluster.converged c)

let test_sequential_writer_blocks () =
  let c =
    Dfs.Cluster.create ~consistency:Dfs.Consistency.Sequential ~rtt:0.002 ~n:4 ()
  in
  ok (Fs.write_file (Dfs.Cluster.node c 0) ~cred (p "/f") "x");
  (* one create + one write op, each stalls 3 RTTs (3 other replicas) *)
  Alcotest.(check bool) "writer paid replication rounds" true
    (dfs_series c "writer_blocked_s" >= 0.012 -. 1e-9);
  Alcotest.(check int) "replicated to 3 peers per op" 6
    (dfs_count c "ops_replicated")

let test_close_to_open_staleness_window () =
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.nfs ~n:2 () in
  ok (Fs.write_file (Dfs.Cluster.node c 0) ~cred (p "/f") "v1");
  (* NFS attribute cache: not yet visible remotely *)
  Alcotest.(check (option string)) "stale remote read" None
    (read_on (Dfs.Cluster.node c 1) "/f");
  Dfs.Cluster.advance c 1.0;
  Alcotest.(check (option string)) "still inside the 3s window" None
    (read_on (Dfs.Cluster.node c 1) "/f");
  Dfs.Cluster.advance c 2.5;
  Alcotest.(check (option string)) "visible after the window" (Some "v1")
    (read_on (Dfs.Cluster.node c 1) "/f");
  Alcotest.(check bool) "converged" true (Dfs.Cluster.converged c)

let test_eventual_propagation () =
  let c =
    Dfs.Cluster.create
      ~consistency:(Dfs.Consistency.Eventual { propagation_s = 0.5 })
      ~n:3 ()
  in
  ok (Fs.write_file (Dfs.Cluster.node c 2) ~cred (p "/f") "from-2");
  Alcotest.(check bool) "pending" true (Dfs.Cluster.pending c > 0);
  Dfs.Cluster.advance c 0.6;
  Alcotest.(check (option string)) "reached node 0" (Some "from-2")
    (read_on (Dfs.Cluster.node c 0) "/f");
  (* writes on replicas do not echo back forever *)
  Alcotest.(check bool) "no echo storm" true (Dfs.Cluster.converged c)

let test_flush () =
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.nfs ~n:2 () in
  ok (Fs.write_file (Dfs.Cluster.node c 0) ~cred (p "/f") "x");
  Dfs.Cluster.flush c;
  Alcotest.(check (option string)) "flush forces visibility" (Some "x")
    (read_on (Dfs.Cluster.node c 1) "/f")

let test_all_op_kinds_replicate () =
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.Sequential ~n:2 () in
  let a = Dfs.Cluster.node c 0
  and b = Dfs.Cluster.node c 1 in
  ok (Fs.mkdir_p a ~cred (p "/d/sub"));
  ok (Fs.write_file a ~cred (p "/d/f") "1");
  ok (Fs.symlink a ~cred ~target:"/d/f" (p "/d/l"));
  ok (Fs.chmod a ~cred (p "/d/f") 0o600);
  ok (Fs.setxattr a ~cred (p "/d/f") ~name:"k" ~value:"v");
  ok (Fs.rename a ~cred ~src:(p "/d/f") ~dst:(p "/d/g"));
  Alcotest.(check (option string)) "content after rename" (Some "1")
    (read_on b "/d/g");
  Alcotest.(check string) "symlink" "/d/f" (ok (Fs.readlink b ~cred (p "/d/l")));
  Alcotest.(check string) "xattr" "v"
    (ok (Fs.getxattr b ~cred (p "/d/g") ~name:"k"));
  Alcotest.(check int) "mode" 0o600 (ok (Fs.stat b ~cred (p "/d/g"))).Fs.mode;
  ok (Fs.rmdir ~recursive:true a ~cred (p "/d"));
  Alcotest.(check bool) "tree removal replicated" false (Fs.exists b ~cred (p "/d"))

let test_partition_and_heal () =
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.Sequential ~n:3 () in
  ok (Fs.mkdir (Dfs.Cluster.node c 0) ~cred (p "/net"));
  Dfs.Cluster.set_partitioned c 2 true;
  ok (Fs.write_file (Dfs.Cluster.node c 0) ~cred (p "/net/during") "cutoff");
  Alcotest.(check (option string)) "node 1 got it" (Some "cutoff")
    (read_on (Dfs.Cluster.node c 1) "/net/during");
  Alcotest.(check (option string)) "node 2 did not" None
    (read_on (Dfs.Cluster.node c 2) "/net/during");
  (* writes on the partitioned node queue too *)
  ok (Fs.write_file (Dfs.Cluster.node c 2) ~cred (p "/net/island") "lonely");
  Alcotest.(check (option string)) "island write local only" None
    (read_on (Dfs.Cluster.node c 0) "/net/island");
  (* heal: both directions reconcile *)
  Dfs.Cluster.set_partitioned c 2 false;
  Alcotest.(check (option string)) "node 2 caught up" (Some "cutoff")
    (read_on (Dfs.Cluster.node c 2) "/net/during");
  Alcotest.(check (option string)) "island published" (Some "lonely")
    (read_on (Dfs.Cluster.node c 0) "/net/island");
  Alcotest.(check bool) "converged after heal" true (Dfs.Cluster.converged c)

let test_visibility_delay_values () =
  Alcotest.(check (float 1e-9)) "sequential" 0.
    (Dfs.Consistency.visibility_delay Dfs.Consistency.Sequential);
  Alcotest.(check (float 1e-9)) "nfs" 3.0
    (Dfs.Consistency.visibility_delay Dfs.Consistency.nfs);
  Alcotest.(check (float 1e-9)) "sequential writer stall"
    0.006
    (Dfs.Consistency.write_blocks_for Dfs.Consistency.Sequential ~rtt:0.002
       ~replicas:4);
  Alcotest.(check (float 1e-9)) "async writer free" 0.
    (Dfs.Consistency.write_blocks_for Dfs.Consistency.nfs ~rtt:0.002 ~replicas:4)

(* --- the §6 proof of concept: a distributed yanc controller ------------------------- *)

(* A path the schema's mkdir policy derives from its parent. *)
let auto_child ~root path =
  match Path.parent path, Path.basename path with
  | Some parent, Some name -> List.mem name (Y.Schema.classify ~root parent).Y.Schema.makes
  | _ -> false

(* Every object as (path, kind, mode, uid, gid, bytes). *)
let snapshot fs =
  let bytes path (st : Fs.stat) =
    match st.kind with
    | Fs.File -> ok (Fs.read_file fs ~cred path)
    | Fs.Symlink -> ok (Fs.readlink fs ~cred path)
    | Fs.Dir -> ""
  in
  List.rev
    (ok
       (Fs.fold fs ~cred Path.root ~init:[] (fun acc path (st : Fs.stat) ->
            ( (Path.to_string path, st.kind, st.mode, st.uid, st.gid, bytes path st)
              :: acc,
              `Continue ))))

(* A switch's children come with its [Mkdir], in every consistency mode
   and whichever of the schema and the cluster attached first: nothing
   is originated for them, no replay fails, and the replica's tree is
   the origin's. *)
let test_replicas_derive_children () =
  List.iter
    (fun consistency ->
      List.iter
        (fun schema_first ->
          let fs0 = Fs.create () and fs1 = Fs.create () in
          let mount () = List.map Y.Yanc_fs.create [ fs0; fs1 ] in
          let cluster () = Dfs.Cluster.of_replicas ~consistency [ fs0; fs1 ] in
          let yfs, c =
            if schema_first then
              let yfs = mount () in
              yfs, cluster ()
            else
              let c = cluster () in
              mount (), c
          in
          Dfs.Cluster.flush c;
          let yfs0 = List.hd yfs in
          let root = Y.Yanc_fs.root yfs0 in
          let case =
            Printf.sprintf "%s, %s first"
              (Dfs.Consistency.to_string consistency)
              (if schema_first then "schema" else "cluster")
          in
          let journal = ref [] in
          let hook = Fs.subscribe fs0 (fun op -> journal := op :: !journal) in
          let originated = dfs_count c "ops_originated" in
          for i = 1 to 4 do
            ok
              (Y.Yanc_fs.add_switch yfs0 ~cred:Vfs.Cred.root ~name:(Printf.sprintf "sw%d" i)
                 ~dpid:(Int64.of_int i) ~protocol:"openflow10" ~n_buffers:0
                 ~n_tables:1 ~capabilities:[] ~actions:[])
          done;
          (match
             Apps.Flow_pusher.push_config yfs0 ~cred
               "sw1 name=flood priority=1 action.0.out=flood"
           with
          | Ok 1 -> ()
          | Ok n -> Alcotest.failf "%s: pushed %d" case n
          | Error e -> Alcotest.fail e);
          Dfs.Cluster.flush c;
          Fs.unsubscribe fs0 hook;
          Alcotest.(check int) (case ^ ": no failed replay") 0
            (dfs_count c "replay_failed");
          Alcotest.(check int)
            (case ^ ": the journal is what was originated")
            (dfs_count c "ops_originated" - originated)
            (List.length !journal);
          Alcotest.(check (list string)) (case ^ ": no op on an auto-child") []
            (List.filter_map
               (fun op ->
                 let path = Vfs.Op.path op in
                 if auto_child ~root path then Some (Path.to_string path)
                 else None)
               !journal);
          Alcotest.(check bool) (case ^ ": replica tree = origin tree") true
            (snapshot fs0 = snapshot fs1))
        [ true; false ])
    [ Dfs.Consistency.Sequential; Dfs.Consistency.nfs;
      Dfs.Consistency.Eventual { propagation_s = 0.5 } ]

(* Policies do not replicate: a replica mounted without the schema never
   gets a switch's flows/, so the flow under it cannot replay there. The
   divergence shows in [dfs.replay_failed] (a Crit health probe). *)
let test_replica_without_schema_counts_failures () =
  let fs0 = Fs.create () and fs1 = Fs.create () in
  let yfs0 = Y.Yanc_fs.create fs0 in
  let c =
    Dfs.Cluster.of_replicas ~consistency:Dfs.Consistency.Sequential [ fs0; fs1 ]
  in
  ok
    (Y.Yanc_fs.add_switch yfs0 ~cred:Vfs.Cred.root ~name:"sw1" ~dpid:1L ~protocol:"openflow10"
       ~n_buffers:0 ~n_tables:1 ~capabilities:[] ~actions:[]);
  (match
     Apps.Flow_pusher.push_config yfs0 ~cred
       "sw1 name=flood priority=1 action.0.out=flood"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let flows = Path.child (Y.Layout.switch ~root:(Y.Yanc_fs.root yfs0) "sw1") "flows" in
  Alcotest.(check bool) "the replica has no flows/" false
    (Fs.exists fs1 ~cred flows);
  Alcotest.(check bool) "failed replays are counted" true
    (dfs_count c "replay_failed" > 0)

let test_distributed_controller () =
  (* Node A hosts the driver (it owns the control channel to the
     switch); node B is a remote controller machine. A flow written on
     node B's replica must reach the hardware through node A's driver —
     "when an application on another machine writes to a file
     representing a flow entry, that will show up on the device". *)
  let built = Netsim.Topo_gen.linear ~hosts_per_switch:2 1 in
  let fs_a = Fs.create () in
  let fs_b = Fs.create () in
  let yfs_a = Y.Yanc_fs.create fs_a in
  let yfs_b = Y.Yanc_fs.create fs_b in
  let cluster =
    Dfs.Cluster.of_replicas ~consistency:Dfs.Consistency.Sequential [ fs_a; fs_b ]
  in
  let mgr = Driver.Manager.create ~yfs:yfs_a ~net:built.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.run_control mgr ~now:0.;
  (* the handshake's writes replicated to node B *)
  Alcotest.(check (list string)) "node B sees the switch" [ "sw1" ]
    (Y.Yanc_fs.switch_names yfs_b);
  (* remote admin on node B pushes a flow *)
  (match
     Apps.Flow_pusher.push_config yfs_b ~cred
       "sw1 name=flood priority=1 action.0.out=flood"
   with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "pushed %d" n
  | Error e -> Alcotest.fail e);
  (* replication delivered it to node A, whose driver programs hardware *)
  Driver.Manager.run_control mgr ~now:1.;
  let sw = Option.get (Netsim.Network.switch built.net 1L) in
  Alcotest.(check int) "hardware programmed from remote write" 1
    (Yanc.Audit.switch yfs_a sw ~now:1. ~desired:None).hw_rules;
  (* and the data plane works *)
  let h1 = Option.get (Netsim.Network.host built.net "h1") in
  Netsim.Network.send_from_host built.net "h1"
    (Netsim.Sim_host.ping h1 ~now:0. ~dst:(Netsim.Topo_gen.host_ip 2) ~seq:1);
  Netsim.Network.run built.net;
  Alcotest.(check int) "ping through remotely-written flow" 1
    (List.length (Netsim.Sim_host.ping_results h1));
  ignore cluster

let test_distributed_counters_flow_back () =
  (* Counters written by node A's driver become visible on node B. *)
  let built = Netsim.Topo_gen.linear ~hosts_per_switch:2 1 in
  let fs_a = Fs.create () in
  let fs_b = Fs.create () in
  let yfs_a = Y.Yanc_fs.create fs_a in
  let yfs_b = Y.Yanc_fs.create fs_b in
  let cluster =
    Dfs.Cluster.of_replicas ~consistency:(Dfs.Consistency.Eventual { propagation_s = 0.1 })
      [ fs_a; fs_b ]
  in
  let mgr = Driver.Manager.create ~yfs:yfs_a ~net:built.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.run_control mgr ~now:0.;
  Dfs.Cluster.advance cluster 0.2;
  ignore
    (Apps.Flow_pusher.push_config yfs_a ~cred
       "sw1 name=flood priority=1 action.0.out=flood");
  Driver.Manager.run_control mgr ~now:1.;
  let h1 = Option.get (Netsim.Network.host built.net "h1") in
  Netsim.Network.send_from_host built.net "h1"
    (Netsim.Sim_host.ping h1 ~now:0. ~dst:(Netsim.Topo_gen.host_ip 2) ~seq:1);
  Netsim.Network.run built.net;
  (* past the stats interval *)
  Driver.Manager.run_control mgr ~now:6.;
  Dfs.Cluster.advance cluster 1.0;
  let counters =
    Y.Layout.flow_counters ~root:(Y.Yanc_fs.root yfs_b) ~switch:"sw1" "flood"
  in
  match Fs.read_file fs_b ~cred (Path.child counters "packets") with
  | Ok v ->
    Alcotest.(check bool) "remote node reads live counters" true
      (int_of_string (String.trim v) > 0)
  | Error e -> Alcotest.failf "counters missing remotely: %s" (Vfs.Errno.to_string e)

let test_xattr_consistency_strict () =
  (* §5.1: an xattr marks a subtree as requiring strict consistency even
     in an eventually consistent cluster. *)
  let c =
    Dfs.Cluster.create
      ~consistency:(Dfs.Consistency.Eventual { propagation_s = 60. })
      ~n:2 ()
  in
  let a = Dfs.Cluster.node c 0 in
  ok (Fs.mkdir a ~cred (p "/net"));
  Dfs.Cluster.flush c;
  ok (Fs.mkdir a ~cred (p "/net/critical"));
  Dfs.Cluster.flush c;
  ok
    (Fs.setxattr a ~cred (p "/net/critical") ~name:Dfs.Cluster.consistency_xattr
       ~value:"strict");
  Dfs.Cluster.flush c;
  (* writes under the annotated dir are synchronous... *)
  ok (Fs.write_file a ~cred (p "/net/critical/flow") "now");
  Alcotest.(check (option string)) "strict write visible immediately" (Some "now")
    (read_on (Dfs.Cluster.node c 1) "/net/critical/flow");
  (* ...while ordinary writes still lag *)
  ok (Fs.write_file a ~cred (p "/net/lazy") "later");
  Alcotest.(check (option string)) "default write still lazy" None
    (read_on (Dfs.Cluster.node c 1) "/net/lazy");
  Alcotest.(check string) "introspection" "sequential"
    (Dfs.Consistency.to_string
       (Dfs.Cluster.effective_consistency c ~origin:0 (p "/net/critical/flow")))

let test_xattr_consistency_relaxed () =
  (* the inverse: a "relaxed" subtree defers even under Sequential *)
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.Sequential ~n:2 () in
  let a = Dfs.Cluster.node c 0 in
  ok (Fs.mkdir a ~cred (p "/bulk"));
  ok
    (Fs.setxattr a ~cred (p "/bulk") ~name:Dfs.Cluster.consistency_xattr
       ~value:"relaxed");
  ok (Fs.write_file a ~cred (p "/bulk/stats") "big");
  Alcotest.(check (option string)) "relaxed write deferred" None
    (read_on (Dfs.Cluster.node c 1) "/bulk/stats");
  Dfs.Cluster.advance c 2.0;
  Alcotest.(check (option string)) "arrives later" (Some "big")
    (read_on (Dfs.Cluster.node c 1) "/bulk/stats")

let test_work_distribution_across_nodes () =
  (* The paper's PoC "distributed computational workload among multiple
     machines": sw1's driver runs on node A, sw2's on node B, and the
     flow-pushing administrator on node C — three machines, one logical
     controller. *)
  let built = Netsim.Topo_gen.linear ~hosts_per_switch:1 2 in
  let fs_a = Fs.create ()
  and fs_b = Fs.create ()
  and fs_c = Fs.create () in
  let yfs_a = Y.Yanc_fs.create fs_a
  and yfs_b = Y.Yanc_fs.create fs_b
  and yfs_c = Y.Yanc_fs.create fs_c in
  let _cluster =
    Dfs.Cluster.of_replicas ~consistency:Dfs.Consistency.Sequential
      [ fs_a; fs_b; fs_c ]
  in
  let mgr_a = Driver.Manager.create ~yfs:yfs_a ~net:built.net () in
  let mgr_b = Driver.Manager.create ~yfs:yfs_b ~net:built.net () in
  Driver.Manager.attach mgr_a ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.attach mgr_b ~dpid:2L ~version:Driver.Manager.V13;
  Driver.Manager.run_control mgr_a ~now:0.;
  Driver.Manager.run_control mgr_b ~now:0.;
  (* node C (no driver at all) sees both switches and pushes to both *)
  Alcotest.(check (list string)) "node C sees both" [ "sw1"; "sw2" ]
    (Y.Yanc_fs.switch_names yfs_c);
  (match
     Apps.Flow_pusher.push_config yfs_c ~cred
       "* name=flood priority=1 action.0.out=flood"
   with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "pushed %d" n
  | Error e -> Alcotest.fail e);
  Driver.Manager.run_control mgr_a ~now:1.;
  Driver.Manager.run_control mgr_b ~now:1.;
  let h1 = Option.get (Netsim.Network.host built.net "h1") in
  Netsim.Network.send_from_host built.net "h1"
    (Netsim.Sim_host.ping h1 ~now:0. ~dst:(Netsim.Topo_gen.host_ip 2) ~seq:1);
  Netsim.Network.run built.net;
  Alcotest.(check int) "ping across switches driven by different machines" 1
    (List.length (Netsim.Sim_host.ping_results h1))

let test_kandoo_style_device_local_control () =
  (* §7.1: the device itself runs yanc and application software, under
     the direction of the global view. Node 0 is "the switch" (driver +
     a local learning app over its own replica); node 1 is the remote
     controller machine, which only observes files — yet sees the local
     app's flows appear, and can override them. *)
  let built = Netsim.Topo_gen.linear ~hosts_per_switch:2 1 in
  let device_fs = Fs.create () in
  let server_fs = Fs.create () in
  let device_yfs = Y.Yanc_fs.create device_fs in
  let server_yfs = Y.Yanc_fs.create server_fs in
  let _cluster =
    Dfs.Cluster.of_replicas ~consistency:Dfs.Consistency.Sequential
      [ device_fs; server_fs ]
  in
  let mgr = Driver.Manager.create ~yfs:device_yfs ~net:built.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.run_control mgr ~now:0.;
  let learner = Apps.Learning_switch.create device_yfs in
  (* traffic makes the device-local app learn and install flows *)
  let h1 = Option.get (Netsim.Network.host built.net "h1") in
  Netsim.Network.send_from_host built.net "h1"
    (Netsim.Sim_host.ping h1 ~now:0. ~dst:(Netsim.Topo_gen.host_ip 2) ~seq:1);
  let budget = ref 50 in
  while Netsim.Sim_host.ping_results h1 = [] && !budget > 0 do
    decr budget;
    Netsim.Network.run built.net;
    Apps.Learning_switch.run learner ~now:0.;
    Driver.Manager.run_control mgr ~now:0.
  done;
  Alcotest.(check bool) "local control plane works" true
    (Netsim.Sim_host.ping_results h1 <> []);
  (* the remote server sees the device-resident app's flows as files *)
  let remote_view = Y.Yanc_fs.flow_names server_yfs ~cred "sw1" in
  Alcotest.(check bool) "server observes locally-installed flows" true
    (List.length remote_view >= 1);
  (* and global policy written at the server lands on the device *)
  ignore
    (Apps.Flow_pusher.push_config server_yfs ~cred
       "sw1 name=global-override priority=60000 match.dl_type=0x0800 \
        match.nw_proto=6 match.tp_dst=23 action.0.out=drop");
  Driver.Manager.run_control mgr ~now:1.;
  let sw = Option.get (Netsim.Network.switch built.net 1L) in
  (* the committed override has priority 60000, and hardware holds
     every committed rule *)
  let report = Yanc.Audit.switch device_yfs sw ~now:1. ~desired:None in
  Alcotest.(check bool) "global override programmed on the device" true
    (Result.map (fun (f : Y.Flowdir.t) -> f.priority)
       (Y.Yanc_fs.read_flow device_yfs ~cred ~switch:"sw1" "global-override")
     = Ok 60000
    && report.invalid = [] && Yanc.Audit.ok report && report.hw_rules >= 1)

let test_metrics () =
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.nfs ~n:3 () in
  for i = 1 to 5 do
    ok (Fs.write_file (Dfs.Cluster.node c 0) ~cred (p (Printf.sprintf "/f%d" i)) "x")
  done;
  (* 5 files x (create + write) = 10 origin ops *)
  Alcotest.(check int) "ops originated" 10 (dfs_count c "ops_originated");
  Alcotest.(check bool) "queue high-water" true (dfs_count c "max_queue" >= 10);
  Dfs.Cluster.flush c;
  (* each fresh file's [Create] is made redundant by its whole-file
     [Write] (replay creates on ENOENT), so only the 5 writes travel *)
  Alcotest.(check int) "replicated to both peers" 10
    (dfs_count c "ops_replicated")

(* A read-only replica refuses a replicated write like any other op,
   and the refusal is counted. *)
let test_readonly_replica_refuses () =
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.nfs ~n:2 () in
  let remote = Dfs.Cluster.node c 1 in
  ok (Fs.write_file (Dfs.Cluster.node c 0) ~cred (p "/f") "v1");
  Dfs.Cluster.flush c;
  Alcotest.(check (option string)) "replicated" (Some "v1") (read_on remote "/f");
  Alcotest.(check int) "no failed replay" 0 (dfs_count c "replay_failed");
  Fs.set_readonly remote true;
  (* An append is one [Write] op. *)
  ok (Fs.append_file (Dfs.Cluster.node c 0) ~cred (p "/f") "v2");
  Dfs.Cluster.flush c;
  Alcotest.(check (option string)) "read-only replica keeps its content"
    (Some "v1") (read_on remote "/f");
  Alcotest.(check int) "refused replay counted" 1 (dfs_count c "replay_failed")

let test_fsnotify_fires_on_replica () =
  (* The property the distributed driver depends on: watchers on a
     replica see replicated ops. *)
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.Sequential ~n:2 () in
  let remote = Dfs.Cluster.node c 1 in
  let notifier = Fsnotify.Notifier.create remote in
  ignore (Fs.mkdir remote ~cred (p "/watched"));
  ignore
    (Fsnotify.Notifier.add_watch notifier (p "/watched") Fsnotify.Notifier.all);
  ok (Fs.write_file (Dfs.Cluster.node c 0) ~cred (p "/watched/f") "remote-write");
  let events = Fsnotify.Notifier.read_events notifier in
  Alcotest.(check bool) "watcher fired for a remote write" true
    (List.exists (fun (e : Fsnotify.Event.t) -> e.name = Some "f") events)

let test_replica_reads_see_replayed_state () =
  (* Replicated ops arrive via [Fs.replay]. Reads on the replica before
     and after each replicated op must see the replayed namespace and
     attributes. *)
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.Sequential ~n:2 () in
  let origin = Dfs.Cluster.node c 0 in
  let remote = Dfs.Cluster.node c 1 in
  let alice = Vfs.Cred.make ~uid:100 ~gid:100 () in
  ok (Fs.mkdir origin ~cred (p "/d"));
  ok (Fs.write_file origin ~cred (p "/d/f") "v1");
  Alcotest.(check (option string)) "positive read" (Some "v1") (read_on remote "/d/f");
  Alcotest.(check (option string)) "negative read" None (read_on remote "/d/g");
  Alcotest.(check bool) "alice reads" true
    (Result.is_ok (Fs.read_file remote ~cred:alice (p "/d/f")));
  (* a replicated create turns ENOENT into content *)
  ok (Fs.write_file origin ~cred (p "/d/g") "new");
  Alcotest.(check (option string)) "created" (Some "new")
    (read_on remote "/d/g");
  (* a replicated chmod revokes alice's traversal *)
  ok (Fs.chmod origin ~cred (p "/d") 0o700);
  Alcotest.(check bool) "alice revoked on replica" true
    (Fs.read_file remote ~cred:alice (p "/d/f") = Error Vfs.Errno.EACCES);
  (* a replicated rename moves the subtree *)
  ok (Fs.rename origin ~cred ~src:(p "/d") ~dst:(p "/e"));
  Alcotest.(check (option string)) "old prefix dead" None (read_on remote "/d/f");
  Alcotest.(check (option string)) "new prefix live" (Some "v1")
    (read_on remote "/e/f")

(* A replica's copy of a directory or file is owned as the origin's
   is: by replay (Sequential, and a queued create that a whole-file
   write did not make redundant under close-to-open), and by
   anti-entropy. *)
let test_replicas_keep_owners () =
  let alice = Vfs.Cred.make ~uid:100 ~gid:100 () in
  let owner fs path = (ok (Fs.stat fs ~cred (p path))).Fs.uid in
  let shared fs =
    ok (Fs.mkdir fs ~cred (p "/t"));
    ok (Fs.chmod fs ~cred (p "/t") 0o777)
  in
  List.iter
    (fun consistency ->
      let c = Dfs.Cluster.create ~consistency ~n:2 () in
      let a = Dfs.Cluster.node c 0 and b = Dfs.Cluster.node c 1 in
      shared a;
      ok (Fs.mkdir a ~cred:alice (p "/t/d"));
      ok (Fs.write_file a ~cred:alice (p "/t/d/f") "x");
      Dfs.Cluster.flush c;
      Alcotest.(check int) "directory on the origin" 100 (owner a "/t/d");
      Alcotest.(check int) "directory on the replica" 100 (owner b "/t/d");
      Alcotest.(check int) "file on the replica" 100 (owner b "/t/d/f"))
    [ Dfs.Consistency.Sequential; Dfs.Consistency.nfs ];
  let fs0 = Fs.create () and fs1 = Fs.create () in
  shared fs0;
  ok (Fs.mkdir fs0 ~cred:alice (p "/t/d"));
  ok (Fs.write_file fs0 ~cred:alice (p "/t/d/f") "x");
  let c = Dfs.Cluster.of_replicas ~consistency:Dfs.Consistency.Sequential [ fs0; fs1 ] in
  ignore (Dfs.Cluster.sync_subtree c ~from_:0 ~to_:1 (p "/t"));
  Alcotest.(check int) "directory synced" 100 (owner fs1 "/t/d");
  Alcotest.(check int) "file synced" 100 (owner fs1 "/t/d/f")

let () =
  Alcotest.run "dfs"
    [ ( "consistency",
        [ Alcotest.test_case "sequential immediate" `Quick
            test_sequential_everywhere_at_once;
          Alcotest.test_case "sequential writer blocks" `Quick
            test_sequential_writer_blocks;
          Alcotest.test_case "close-to-open staleness" `Quick
            test_close_to_open_staleness_window;
          Alcotest.test_case "eventual propagation" `Quick test_eventual_propagation;
          Alcotest.test_case "flush" `Quick test_flush;
          Alcotest.test_case "model parameters" `Quick test_visibility_delay_values ] );
      ( "replication",
        [ Alcotest.test_case "all op kinds" `Quick test_all_op_kinds_replicate;
          Alcotest.test_case "partition + heal" `Quick test_partition_and_heal;
          Alcotest.test_case "xattr strict override" `Quick
            test_xattr_consistency_strict;
          Alcotest.test_case "xattr relaxed override" `Quick
            test_xattr_consistency_relaxed;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "read-only replica refuses" `Quick
            test_readonly_replica_refuses;
          Alcotest.test_case "fsnotify on replica" `Quick test_fsnotify_fires_on_replica;
          Alcotest.test_case "replica reads see replayed state" `Quick
            test_replica_reads_see_replayed_state;
          Alcotest.test_case "replicas derive a switch's children" `Quick
            test_replicas_derive_children;
          Alcotest.test_case "replica without the schema counts failures"
            `Quick test_replica_without_schema_counts_failures;
          Alcotest.test_case "replicas keep owners" `Quick test_replicas_keep_owners ] );
      ( "distributed-controller",
        [ Alcotest.test_case "remote write reaches hardware" `Quick
            test_distributed_controller;
          Alcotest.test_case "counters flow back" `Quick
            test_distributed_counters_flow_back;
          Alcotest.test_case "kandoo-style device-local control" `Quick
            test_kandoo_style_device_local_control;
          Alcotest.test_case "work distribution across machines" `Quick
            test_work_distribution_across_nodes ] ) ]
