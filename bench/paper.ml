(* The paper's own figures and claims (HotNets '13, §3-§8), plus the
   ablations of design choices DESIGN.md calls out. The paper has no
   numeric tables; its quantitative content is §8.1: file-system access
   costs a context switch per call, "writing flow entries to thousands
   of nodes will result in tens of thousands of context switches", and
   libyanc's shared-memory fastpath removes them. Each experiment
   prints a table whose shape supports or refutes those claims on the
   simulated substrate. *)

open Harness

(* ================================================================== *)
(* E1 — the Figure 2/3 structure, printed for eyeball comparison. *)
(* ================================================================== *)

let e1_figure () =
  section "E1   Figure 2/3: the yanc hierarchy (1 switch, 1 committed flow)";
  let _, yfs = fresh_yancfs () in
  ignore
    (Y.Yanc_fs.set_port yfs ~cred:Vfs.Cred.root ~switch:"sw1"
       (OF.Of_types.Port_info.make ~port_no:1 ~hw_addr:(P.Mac.of_int 0x02) ()));
  ignore
    (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1" ~name:"arp_flow"
       { Y.Flowdir.default with
         Y.Flowdir.of_match =
           { OF.Of_match.any with
             OF.Of_match.dl_type = Some 0x0806;
             dl_src = Some (P.Mac.of_int 0x020000000001) };
         actions = [ OF.Action.Output (OF.Action.Controller 0) ];
         priority = 0x8000 });
  print_string (Y.Yanc_fs.tree yfs)

(* ================================================================== *)
(* E8a — the headline table: kernel crossings to push one flow to N
   switches, file path vs libyanc fastpath (paper §8.1). *)
(* ================================================================== *)

let e8_crossings () =
  section
    "E8a  crossings: push one flow to each of N switches (paper 8.1)";
  row "  %8s | %16s | %18s | %6s\n" "switches" "fs-path syscalls"
    "fastpath syscalls" "ratio";
  List.iter
    (fun n ->
      (* slow path *)
      let fs, yfs = fresh_yancfs ~switches:n () in
      let c0 = fs_count fs "vfs.crossings" in
      for i = 1 to n do
        ignore
          (Y.Yanc_fs.create_flow yfs ~cred
             ~switch:(Y.Yanc_fs.switch_name_of_dpid (Int64.of_int i))
             ~name:"f" (sample_flow i))
      done;
      let slow = fs_count fs "vfs.crossings" - c0 in
      (* fastpath *)
      let fs2, yfs2 = fresh_yancfs ~switches:n () in
      let c0 = fs_count fs2 "vfs.crossings" in
      let fp = Libyanc.Fastpath.create yfs2 in
      ignore
        (Libyanc.Fastpath.push_flows fp
           (List.init n (fun i ->
                ( Y.Yanc_fs.switch_name_of_dpid (Int64.of_int (i + 1)),
                  "f", sample_flow i ))));
      let fast = fs_count fs2 "vfs.crossings" - c0 in
      row "  %8d | %16d | %18d | %5dx\n" n slow fast (slow / max 1 fast))
    [ 10; 100; 1000 ]

(* E8b — wall-clock for the same contrast. *)
let e8_walltime () =
  section "E8b  wall time per flow create: fs path vs libyanc fastpath";
  let _, yfs = fresh_yancfs () in
  let counter = ref 0 in
  let fp = Libyanc.Fastpath.create yfs in
  print_benchmarks
    [ test "flow_create/fs_path" (fun () ->
          incr counter;
          ignore
            (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1"
               ~name:(Printf.sprintf "s%d" !counter)
               (sample_flow !counter)));
      test "flow_create/fastpath" (fun () ->
          incr counter;
          ignore
            (Libyanc.Fastpath.create_flow fp ~switch:"sw1"
               ~name:(Printf.sprintf "q%d" !counter)
               (sample_flow !counter))) ]

(* ================================================================== *)
(* E3 — commit latency: version bump -> programmed hardware, through a
   real driver + agent round. *)
(* ================================================================== *)

let e3_commit () =
  section "E3   flow commit -> hardware (driver+agent round trip)";
  let net, yfs, mgr = driver_rig () in
  let counter = ref 0 in
  print_benchmarks
    [ test "commit_to_hardware/of10" (fun () ->
          incr counter;
          ignore
            (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1"
               ~name:(Printf.sprintf "c%d" !counter)
               (sample_flow !counter));
          Driver.Manager.step mgr ~now:0.) ];
  row "  (hardware table now holds %d entries)\n" (hw_entries net 1L)

(* ================================================================== *)
(* E4 — packet-in fan-out to K private buffers (paper 3.5), and the
   zero-copy contrast (8.1). *)
(* ================================================================== *)


(* Benches consume as root: a failed event removal is a broken rig. *)
let rmdir_failed e = failwith ("event rmdir: " ^ Vfs.Errno.to_string e)

let e4_fanout () =
  section "E4   packet-in fan-out to K application buffers (paper 3.5)";
  let frame =
    P.Eth.to_wire
      (P.Eth.make ~src:(P.Mac.of_int 1) ~dst:(P.Mac.of_int 2)
         (P.Eth.Raw (0x9999, String.make 1400 'x')))
  in
  let tests =
    List.map
      (fun k ->
        let fs, yfs = fresh_yancfs () in
        for i = 1 to k do
          ignore
            (Y.Eventdir.subscribe fs ~cred ~root:net_root ~switch:"sw1"
               ~app:(Printf.sprintf "app%d" i))
        done;
        (* consume as we go so the buffers stay small *)
        let published = ref 0 in
        test (Printf.sprintf "publish/apps=%d" k) (fun () ->
            incr published;
            ignore
              (Y.Eventdir.publish yfs ~cred:Vfs.Cred.root ~switch:"sw1" ~in_port:1
                 ~reason:OF.Of_types.No_match ~buffer_id:None
                 ~total_len:(String.length frame) ~data:frame);
            if !published mod 64 = 0 then
              List.iter
                (fun i ->
                  ignore
                    (Y.Eventdir.consume fs ~cred ~root:net_root ~switch:"sw1"
                       ~app:(Printf.sprintf "app%d" i) ~on_error:rmdir_failed))
                (List.init k (fun i -> i + 1))))
      [ 1; 2; 4; 8 ]
  in
  print_benchmarks tests;
  (* zero-copy contrast *)
  section "E4b  bulk data: event-directory copy vs the pktin ring (8.1)";
  let ring = Y.Pktin.create ~capacity:1024 ~telemetry:(Telemetry.create ()) () in
  let consumer = Y.Pktin.subscribe ring in
  let fs, yfs = fresh_yancfs () in
  ignore (Y.Eventdir.subscribe fs ~cred ~root:net_root ~switch:"sw1" ~app:"a");
  let n = ref 0 in
  print_benchmarks
    [ test "deliver/eventdir_file_copy" (fun () ->
          incr n;
          ignore
            (Y.Eventdir.publish yfs ~cred:Vfs.Cred.root ~switch:"sw1" ~in_port:1
               ~reason:OF.Of_types.No_match ~buffer_id:None
               ~total_len:(String.length frame) ~data:frame);
          if !n mod 32 = 0 then
            ignore
              (Y.Eventdir.consume fs ~cred ~root:net_root ~switch:"sw1" ~app:"a"
                 ~on_error:rmdir_failed));
      test "deliver/pktin_zero_copy" (fun () ->
          ignore
            (Y.Pktin.publish ring ~switch:"sw1" ~in_port:1
               ~reason:OF.Of_types.No_match ~buffer_id:None
               ~total_len:(String.length frame) ~data:frame ~at:0.);
          ignore (Y.Pktin.drain ring consumer ~max:1 ignore)) ]

(* ================================================================== *)
(* Ablation — fsnotify watch granularity (DESIGN.md): a watch per
   version file vs one recursive watch on flows/. *)
(* ================================================================== *)

let ablation_notify () =
  section "ABL1 fsnotify granularity: per-version-file vs recursive watch";
  let flows = 50 in
  let noise = 200 in
  let build () =
    let fs, yfs = fresh_yancfs () in
    for i = 1 to flows do
      ignore
        (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1"
           ~name:(Printf.sprintf "f%d" i) (sample_flow i))
    done;
    fs
  in
  (* fine-grained: one watch per version file *)
  let fs1 = build () in
  let n1 = Fsnotify.Notifier.create fs1 in
  for i = 1 to flows do
    ignore
      (Fsnotify.Notifier.add_watch n1
         (Vfs.Path.child
            (Y.Layout.flow ~root:net_root ~switch:"sw1" (Printf.sprintf "f%d" i))
            "version")
         (Fsnotify.Notifier.mask [ Fsnotify.Event.Modified ]))
  done;
  (* coarse: one recursive watch *)
  let fs2 = build () in
  let n2 = Fsnotify.Notifier.create fs2 in
  ignore
    (Fsnotify.Notifier.add_watch ~recursive:true n2
       (Y.Layout.flows_dir ~root:net_root "sw1")
       Fsnotify.Notifier.all);
  (* the driver refreshes counters: noise writes that only the coarse
     watcher has to wade through *)
  let make_noise fs =
    for i = 1 to noise do
      let flow = Printf.sprintf "f%d" ((i mod flows) + 1) in
      ignore
        (Result.bind
           (Vfs.Fs.opendir fs ~cred (Y.Layout.flow ~root:net_root ~switch:"sw1" flow))
           (fun d ->
             Y.Flowdir.write_counters fs ~cred d ~packets:(Int64.of_int i)
               ~bytes:(Int64.of_int (i * 64)) ~duration_s:i))
    done
  in
  make_noise fs1;
  make_noise fs2;
  let fine = List.length (Fsnotify.Notifier.read_events n1) in
  let coarse = List.length (Fsnotify.Notifier.read_events n2) in
  row "  %d counter refreshes on %d flows:\n" noise flows;
  row "  per-version-file watches: %4d events delivered\n" fine;
  row "  one recursive watch:      %4d events delivered (%.0fx noisier)\n"
    coarse
    (float_of_int coarse /. float_of_int (max 1 fine))

(* ================================================================== *)
(* E7 — distributed controller: consistency trade-offs (paper 6). *)
(* ================================================================== *)

let e7_dfs () =
  section "E7   DFS-layered distributed controller: consistency trade-offs (paper 6)";
  row "  %-26s | %14s | %16s | %14s\n" "consistency" "writer stall/op"
    "remote staleness" "ops replicated";
  let flows = 50 in
  List.iter
    (fun consistency ->
      let c = Dfs.Cluster.create ~consistency ~rtt:0.001 ~n:3 () in
      (* Every replica carries the schema's mkdir policy: a replayed
         switch mkdir derives its flows/ and the other typed children. *)
      let yfs0 =
        List.hd (List.map Y.Yanc_fs.create (Dfs.Cluster.nodes c))
      in
      ignore
        (Y.Yanc_fs.add_switch yfs0 ~cred:Vfs.Cred.root ~name:"sw1" ~dpid:1L ~protocol:"openflow10"
           ~n_buffers:0 ~n_tables:1 ~capabilities:[] ~actions:[]);
      Dfs.Cluster.flush c;
      (* The replication stream reports into replica 0's registry. *)
      let reg = Fs.registry (Dfs.Cluster.node c 0) in
      let blocked () =
        Option.get
          (Telemetry.Registry.find (Telemetry.Registry.snapshot reg)
             "dfs.writer_blocked_s")
      in
      let blocked0 = blocked () in
      let replicated0 = count reg "dfs.ops_replicated" in
      for i = 1 to flows do
        ignore
          (Y.Yanc_fs.create_flow yfs0 ~cred ~switch:"sw1"
             ~name:(Printf.sprintf "f%d" i) (sample_flow i))
      done;
      (* staleness: how long until a replica can read the last flow *)
      let probe =
        Vfs.Path.child
          (Y.Layout.flow ~root:net_root ~switch:"sw1"
             (Printf.sprintf "f%d" flows))
          "version"
      in
      let visible () =
        Result.is_ok (Fs.read_file (Dfs.Cluster.node c 2) ~cred probe)
      in
      let staleness = ref 0. in
      while not (visible ()) do
        if !staleness > 60. then
          failwith "E7: the last flow never reached replica 2";
        Dfs.Cluster.advance c 0.1;
        staleness := !staleness +. 0.1
      done;
      let stall =
        (blocked () -. blocked0)
        /. float_of_int (count reg "dfs.ops_originated")
      in
      row "  %-26s | %11.3f ms | %13.1f s | %14d\n"
        (Dfs.Consistency.to_string consistency)
        (stall *. 1000.) !staleness
        (count reg "dfs.ops_replicated" - replicated0))
    [ Dfs.Consistency.Sequential;
      Dfs.Consistency.nfs;
      Dfs.Consistency.Eventual { propagation_s = 10. } ]

(* ================================================================== *)
(* E9 — reactive path setup cost on the full stack (paper 8). *)
(* ================================================================== *)

let e9_reactive () =
  section "E9   reactive router: first-packet path setup vs hardware path (paper 8)";
  row "  %-10s | %10s | %12s | %12s\n" "topology" "hops" "1st ping: syscalls"
    "2nd ping: syscalls";
  List.iter
    (fun (label, built) ->
      let ctl = reactive_controller built.N.Topo_gen.net in
      Yanc.Controller.run_for ctl 3.0;
      let fs = Yanc.Controller.fs ctl in
      let net = built.N.Topo_gen.net in
      let h = Option.get (N.Network.host net "h1") in
      let last = List.length built.N.Topo_gen.host_names in
      let ping seq =
        let before = fs_count fs "vfs.crossings" in
        N.Network.send_from_host net "h1"
          (N.Sim_host.ping h ~now:(N.Network.now net)
             ~dst:(N.Topo_gen.host_ip last) ~seq);
        ignore
          (Yanc.Controller.run_until ctl (fun () ->
               List.length (N.Sim_host.ping_results h) >= seq));
        fs_count fs "vfs.crossings" - before
      in
      let first = ping 1 in
      let second = ping 2 in
      row "  %-10s | %10d | %12d | %12d\n" label
        (List.length built.N.Topo_gen.dpids)
        first second)
    [ "linear-2", N.Topo_gen.linear 2;
      "linear-5", N.Topo_gen.linear 5;
      "fat-tree-4", N.Topo_gen.fat_tree ~k:4 () ]

(* ================================================================== *)
(* E6 — view translation overhead (paper 4.2). *)
(* ================================================================== *)

let e6_views () =
  section "E6   view overhead: direct flow write vs through a slice";
  let built = N.Topo_gen.linear 1 in
  let ctl = Yanc.Controller.create ~net:built.net () in
  Yanc.Controller.attach_switches ctl;
  Yanc.Controller.run_for ctl 0.3;
  let yfs = Yanc.Controller.yfs ctl in
  let slicer =
    Result.get_ok
      (Views.Slicer.create ~master:yfs
         { Views.Slicer.view = "bench"; switches = [ "sw1", [] ];
           flowspace = OF.Of_match.any; priority_cap = 0xffff })
  in
  let vy = Views.Slicer.view_fs slicer in
  let i = ref 0 in
  print_benchmarks
    [ test "flow_write/direct_master" (fun () ->
          incr i;
          ignore
            (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1"
               ~name:(Printf.sprintf "d%d" !i) (sample_flow !i)));
      test "flow_write/through_slice" (fun () ->
          incr i;
          ignore
            (Y.Yanc_fs.create_flow vy ~cred ~switch:"sw1"
               ~name:(Printf.sprintf "v%d" !i) (sample_flow !i));
          Views.Slicer.run slicer ~now:0.) ]

(* ================================================================== *)

(* ABL3 — granularity of reactive state: the paper's router installs
   exact-match flows (one per connection 5-tuple); a learning switch
   installs per-destination-MAC flows. Hardware table footprint after
   the same traffic. *)
let ablation_reactive_granularity () =
  section
    "ABL3 reactive state: exact-match router vs per-MAC learning switch";
  row "  %-18s | %14s | %16s\n" "application" "hw flow entries"
    "per host-pair conv.";
  let run_app make_app =
    let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
    let ctl = Yanc.Controller.create ~net:built.N.Topo_gen.net () in
    Yanc.Controller.attach_switches ctl;
    make_app ctl;
    Yanc.Controller.run_for ctl 3.0;
    (* h1 talks to h2 on several TCP ports plus a ping *)
    let net = built.N.Topo_gen.net in
    let h1 = Option.get (N.Network.host net "h1") in
    let h2 = Option.get (N.Network.host net "h2") in
    List.iter (N.Sim_host.listen h2) [ 80; 443; 22 ];
    N.Network.send_from_host net "h1"
      (N.Sim_host.ping h1 ~now:(N.Network.now net) ~dst:(N.Topo_gen.host_ip 2) ~seq:1);
    ignore
      (Yanc.Controller.run_until ctl (fun () -> N.Sim_host.ping_results h1 <> []));
    List.iteri
      (fun i port ->
        let dst_mac = N.Topo_gen.host_mac 2 in
        N.Network.send_from_host net "h1"
          [ N.Sim_host.tcp_connect h1 ~dst_ip:(N.Topo_gen.host_ip 2) ~dst_mac
              ~src_port:(40000 + i) ~dst_port:port ];
        Yanc.Controller.run_for ctl 0.2)
      [ 80; 443; 22 ];
    hw_entries net 1L
  in
  let router_flows =
    run_app (fun ctl ->
        let yfs = Yanc.Controller.yfs ctl in
        Yanc.Controller.add_app ctl (Apps.Topology.app (Apps.Topology.create yfs));
        Yanc.Controller.add_app ctl (Apps.Router.app (Apps.Router.create yfs)))
  in
  let learner_flows =
    run_app (fun ctl ->
        Yanc.Controller.add_app ctl
          (Apps.Learning_switch.app
             (Apps.Learning_switch.create (Yanc.Controller.yfs ctl))))
  in
  row "  %-18s | %14d | %16s\n" "router (exact)" router_flows "grows per flow";
  row "  %-18s | %14d | %16s\n" "learning (per-MAC)" learner_flows "constant";
  row "  (same traffic: 1 ping + 3 TCP connections between one host pair)\n"

(* EXT1 — QoS queues (a feature the paper's prototype lists as missing):
   offered load vs delivered rate through a token-bucket queue. *)
let ext_qos () =
  section "EXT1 QoS queues: delivered rate vs configured limit (beyond the paper's prototype)";
  row "  %10s | %12s | %14s | %10s\n" "rate Mbps" "offered MB/s" "delivered MB/s"
    "drop rate";
  List.iter
    (fun rate_mbps ->
      let s = N.Sim_switch.create ~n_ports:2 ~dpid:1L () in
      N.Sim_switch.add_queue s ~port:2 ~queue_id:1 ~rate_mbps;
      (match
         N.Sim_switch.flow_add s ~now:0. ~of_match:OF.Of_match.any ~priority:1
           ~actions:[ OF.Action.Enqueue { port = 2; queue_id = 1 } ] ()
       with
      | Ok () -> ()
      | Error e -> failwith e);
      (* offer 50 MB over one simulated second, in 1500-byte frames *)
      let frame_bytes = 1500 in
      let frames = 50_000_000 / frame_bytes in
      let frame =
        P.Eth.make ~src:(P.Mac.of_int 1) ~dst:(P.Mac.of_int 2)
          (P.Eth.Raw (0x9999, String.make (frame_bytes - 16) 'x'))
      in
      let delivered = ref 0 in
      for i = 0 to frames - 1 do
        let now = float_of_int i /. float_of_int frames in
        match N.Sim_switch.receive_frame s ~now ~in_port:1 frame with
        | [ N.Sim_switch.Transmit _ ] -> incr delivered
        | _ -> ()
      done;
      let delivered_mb =
        float_of_int (!delivered * frame_bytes) /. 1_000_000.
      in
      row "  %10d | %12.1f | %14.2f | %9.1f%%\n" rate_mbps 50.0 delivered_mb
        (100. *. float_of_int (frames - !delivered) /. float_of_int frames))
    [ 1; 10; 100 ]

let e_wire_volume () =
  section "AUX  control-channel bytes per operation (driver wire cost)";
  let flow_mod =
    OF.Msg.Flow_mod
      { table_id = 0; of_match = (sample_flow 1).Y.Flowdir.of_match;
        cookie = 0L; command = OF.Msg.Add; idle_timeout = 0; hard_timeout = 0;
        priority = 1; buffer_id = None; notify_removal = false;
        actions = (sample_flow 1).Y.Flowdir.actions }
  in
  let size dialect = String.length (OF.Dialect.encode dialect ~xid:1l flow_mod) in
  let fm10 = size OF.Dialect.V10 and fm13 = size OF.Dialect.V13 in
  row "  flow_mod wire size: OF1.0 = %d bytes (fixed match), OF1.3 = %d bytes (OXM)\n"
    fm10 fm13
