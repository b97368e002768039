(* The paper's §6 proof of concept, end to end: layer a distributed file
   system over the yanc tree and you have a distributed controller.
   Three controller nodes share state; the driver lives on node A; an
   administrator on node C pushes flows; a partition and heal shows the
   consistency machinery.

     dune exec examples/distributed_controller.exe *)

module Y = Yancfs
module N = Netsim
module Fs = Vfs.Fs

let cred = Vfs.Cred.root

let () =
  Printf.printf "network: 2 switches, 2 hosts; controller cluster: 3 nodes\n%!";
  let built = N.Topo_gen.linear 2 in
  let cluster =
    Dfs.Cluster.create ~consistency:Dfs.Consistency.Sequential ~rtt:0.001 ~n:3 ()
  in
  let node name i = (name, Y.Yanc_fs.create (Dfs.Cluster.node cluster i)) in
  let _, yfs_a = node "A" 0 in
  let _, yfs_b = node "B" 1 in
  let _, yfs_c = node "C" 2 in

  (* only node A talks to the switches *)
  let mgr = Driver.Manager.create ~yfs:yfs_a ~net:built.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.attach mgr ~dpid:2L ~version:Driver.Manager.V13;
  Driver.Manager.run_control mgr ~now:0.;

  Printf.printf "\nafter the handshake, every node sees the switches:\n";
  List.iter
    (fun (name, yfs) ->
      Printf.printf "  node %s: /net/switches = [%s]\n" name
        (String.concat "; " (Y.Yanc_fs.switch_names yfs)))
    [ "A", yfs_a; "B", yfs_b; "C", yfs_c ];

  Printf.printf "\nan admin on node C pushes flood flows with the shell:\n";
  let sh_c = Shell.Env.create (Dfs.Cluster.node cluster 2) in
  let script =
    "mkdir /net/switches/sw1/flows/flood /net/switches/sw2/flows/flood\n\
     echo flood > /net/switches/sw1/flows/flood/action.0.out\n\
     echo flood > /net/switches/sw2/flows/flood/action.0.out\n\
     echo 1 > /net/switches/sw1/flows/flood/version\n\
     echo 1 > /net/switches/sw2/flows/flood/version"
  in
  print_endline script;
  let r = Shell.Pipeline.run_script sh_c script in
  assert (r.Shell.Pipeline.code = 0);

  (* node A's driver picks the replicated writes up *)
  Driver.Manager.run_control mgr ~now:1.;
  let h1 = Option.get (N.Network.host built.net "h1") in
  N.Network.send_from_host built.net "h1"
    (N.Sim_host.ping h1 ~now:0. ~dst:(N.Topo_gen.host_ip 2) ~seq:1);
  N.Network.run built.net;
  Printf.printf "\nping h1 -> h2 through flows written on node C: %s\n"
    (if N.Sim_host.ping_results h1 <> [] then "ok" else "FAILED");

  (* counters written by node A's driver are visible on node B *)
  Driver.Manager.run_control mgr ~now:6.;
  (match
     Fs.read_file (Dfs.Cluster.node cluster 1) ~cred
       (Vfs.Path.child
          (Y.Layout.flow_counters ~root:(Y.Yanc_fs.root yfs_b) ~switch:"sw1" "flood")
          "packets")
   with
  | Ok v -> Printf.printf "node B reads sw1 flood counters: %s packets\n" (String.trim v)
  | Error e -> Printf.printf "node B counters: %s\n" (Vfs.Errno.to_string e));

  (* ---- partition ------------------------------------------------------ *)
  Printf.printf "\npartitioning node C away from the cluster...\n";
  Dfs.Cluster.set_partitioned cluster 2 true;
  let r =
    Shell.Pipeline.run sh_c
      "mkdir /net/switches/sw1/flows/during && echo 1 > /net/switches/sw1/flows/during/version"
  in
  assert (r.Shell.Pipeline.code = 0);
  Printf.printf "  node C wrote a flow while cut off; node A sees %d flows on sw1\n"
    (List.length (Y.Yanc_fs.flow_names yfs_a ~cred "sw1"));
  Printf.printf "healing the partition...\n";
  Dfs.Cluster.set_partitioned cluster 2 false;
  Printf.printf "  after heal, node A sees %d flows on sw1: [%s]\n"
    (List.length (Y.Yanc_fs.flow_names yfs_a ~cred "sw1"))
    (String.concat "; " (Y.Yanc_fs.flow_names yfs_a ~cred "sw1"));
  Driver.Manager.run_control mgr ~now:7.;

  (* the replication counters live in replica 0's registry — the same
     dfs.* series a full controller serves at /yanc/.proc/metrics *)
  let reg = Vfs.Fs.registry (Dfs.Cluster.node cluster 0) in
  Printf.printf "\ncluster metrics (the registry's dfs.* series):\n";
  List.iter
    (fun (name, v) ->
      if String.starts_with ~prefix:"dfs." name then
        Printf.printf "%s %s\n" name (Telemetry.Registry.render_value v))
    (Telemetry.Registry.entries (Telemetry.Registry.snapshot reg));
  print_endline "distributed_controller done."
