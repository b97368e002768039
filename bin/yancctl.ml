(* yancctl: build a simulated network, run the yanc controller over it,
   and administer it with shell one-liners — the whole paper from one
   command line.

   Examples:
     yancctl run --topo linear:3 --apps topology,router --ping h1:h3
     yancctl run --topo fat-tree:4 --apps topology,router --ping h1:h16 \
       --exec 'ls -l /net/switches' --exec 'find /net -name peer'
     yancctl tree --topo star:4
     yancctl shell --topo linear:2 --script pusher.sh *)

module N = Netsim

let setup_logs () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning)

(* --- topology specs: "<kind>:<n>" ---------------------------------------------- *)

(* A spec parses to a builder awaiting the datapath strategy (its own
   flag), so the two compose regardless of option order. *)
let parse_topo spec =
  let fail () = Error (`Msg (Printf.sprintf "unknown topology %S" spec)) in
  match String.split_on_char ':' spec with
  | [ "linear"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Ok (fun strategy -> N.Topo_gen.linear ~strategy n)
    | _ -> fail ())
  | [ "ring"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 3 -> Ok (fun strategy -> N.Topo_gen.ring ~strategy n)
    | _ -> fail ())
  | [ "star"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 ->
      Ok (fun strategy -> N.Topo_gen.star ~leaves:n ~strategy ())
    | _ -> fail ())
  | [ "tree"; spec2 ] -> (
    match String.split_on_char 'x' spec2 with
    | [ f; d ] -> (
      match int_of_string_opt f, int_of_string_opt d with
      | Some fanout, Some depth ->
        Ok (fun strategy -> N.Topo_gen.tree ~fanout ~depth ~strategy ())
      | _ -> fail ())
    | _ -> fail ())
  | [ "fat-tree"; k ] -> (
    match int_of_string_opt k with
    | Some k when k mod 2 = 0 ->
      Ok (fun strategy -> N.Topo_gen.fat_tree ~k ~strategy ())
    | _ -> fail ())
  | [ "random"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 ->
      Ok (fun strategy -> N.Topo_gen.random ~extra_links:(n / 2) ~strategy n)
    | _ -> fail ())
  | _ -> fail ()

let topo_conv =
  Cmdliner.Arg.conv
    ( (fun s -> parse_topo s),
      fun ppf _ -> Format.pp_print_string ppf "<topology>" )

(* --- controller assembly --------------------------------------------------------- *)

let build ~topo ~of13 ~apps =
  let ctl = Yanc.Controller.create ~net:topo.N.Topo_gen.net () in
  Yanc.Controller.attach_switches
    ~version:(if of13 then Yanc.Controller.V13 else Yanc.Controller.V10)
    ctl;
  let yfs = Yanc.Controller.yfs ctl in
  let cred = Vfs.Cred.root in
  List.iter
    (fun app ->
      match app with
      | "topology" ->
        Yanc.Controller.add_app ctl (Apps.Topology.app (Apps.Topology.create yfs))
      | "router" ->
        Yanc.Controller.add_app ctl (Apps.Router.app (Apps.Router.create yfs))
      | "learning" ->
        Yanc.Controller.add_app ctl
          (Apps.Learning_switch.app (Apps.Learning_switch.create yfs))
      | "arpd" ->
        Yanc.Controller.add_app ctl (Apps.Arp_daemon.app (Apps.Arp_daemon.create yfs))
      | "switch-watcher" ->
        Yanc.Controller.add_app ctl
          (Apps.Switch_watcher.app (Apps.Switch_watcher.create yfs))
      | "auditor" ->
        (* change-gated: quiet periods cost an event drain, not a walk *)
        Yanc.Controller.add_app ctl
          (Apps.Auditor.watched_app yfs ~cred
             ~out:(Vfs.Path.of_string_exn "/var/log/audit") ~period:5.)
      | "flow-watcher" ->
        Yanc.Controller.add_app ctl
          (Apps.Flow_pusher.watching yfs ~cred
             ~path:(Vfs.Path.of_string_exn "/etc/flows"))
      | "accounting" ->
        Yanc.Controller.add_app ctl
          (Apps.Accounting.app yfs ~cred
             ~dir:(Vfs.Path.of_string_exn "/var/accounting") ~period:5.)
      | other -> Printf.eprintf "warning: unknown app %S (skipped)\n" other)
    apps;
  ctl

let do_ping ctl topo spec =
  match String.split_on_char ':' spec with
  | [ src; dst ] when String.length dst > 1 && dst.[0] = 'h' -> (
    let net = topo.N.Topo_gen.net in
    match
      N.Network.host net src, int_of_string_opt (String.sub dst 1 (String.length dst - 1))
    with
    | Some h, Some dst_n ->
      let seq = List.length (N.Sim_host.ping_results h) + 1 in
      N.Network.send_from_host net src
        (N.Sim_host.ping h ~now:(N.Network.now net) ~dst:(N.Topo_gen.host_ip dst_n) ~seq);
      let ok =
        (* a fine idle tick keeps the measured RTT close to the
           data-plane latency rather than the scheduler quantum *)
        Yanc.Controller.run_until ~tick:0.002 ctl (fun () ->
            List.length (N.Sim_host.ping_results h) >= seq)
      in
      if ok then
        let r = List.nth (N.Sim_host.ping_results h) (seq - 1) in
        Printf.printf "PING %s -> %s: seq=%d rtt=%.3f ms\n" src dst seq
          (r.N.Sim_host.rtt *. 1000.)
      else Printf.printf "PING %s -> %s: TIMEOUT\n" src dst
    | _ -> Printf.eprintf "bad ping spec %S (want hX:hY)\n" spec)
  | _ -> Printf.eprintf "bad ping spec %S (want hX:hY)\n" spec

(* --- the one counter printer --------------------------------------------------------- *)

(* Every command that reports counters goes through the registry
   snapshot — the same data /yanc/.proc/metrics serves — filtered by
   name prefix. One formatter, not one per command. *)
let print_metrics ?(prefixes = []) ctl =
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let snap =
    Telemetry.Registry.snapshot
      (Telemetry.registry (Yanc.Controller.telemetry ctl))
  in
  List.iter
    (fun (name, v) ->
      if prefixes = [] || List.exists (fun p -> starts_with p name) prefixes
      then Printf.printf "%s %s\n" name (Telemetry.Registry.render_value v))
    (Telemetry.Registry.entries snap)

(* Per-switch control-channel health. Returns true when any driver has
   written a switch off as dead — callers turn that into a nonzero exit
   so scripts and monitors catch it without parsing the table. *)
let print_link_status ctl =
  let mgr = Yanc.Controller.manager ctl in
  let statuses = Driver.Manager.statuses mgr in
  if statuses <> [] then begin
    Printf.printf "%-8s %-12s %11s %7s %7s %10s\n" "SWITCH" "STATUS"
      "DISCONNECTS" "RETRIES" "RESYNCS" "KEEPALIVES";
    List.iter
      (fun (dpid, status) ->
        let name =
          match Driver.Manager.switch_name mgr ~dpid with
          | Some n -> n
          | None -> Printf.sprintf "dpid:%Ld" dpid
        in
        match Driver.Manager.link_counters mgr ~dpid with
        | None -> ()
        | Some (c : Driver.Driver_intf.link_counters) ->
          Printf.printf "%-8s %-12s %11d %7d %7d %10d\n" name
            (Driver.Driver_intf.status_to_string status)
            c.disconnects c.retries c.resyncs c.keepalives_sent)
      statuses;
    print_newline ()
  end;
  List.exists (fun (_, s) -> s = Driver.Driver_intf.Dead) statuses

(* --- commands ---------------------------------------------------------------------- *)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

let run_cmd config_file topo datapath of13 apps duration execs pings stats =
  setup_logs ();
  (* a config file, when given, takes precedence over the flags *)
  let topo, of13, apps, duration, flows =
    match config_file with
    | None -> Ok topo, of13, apps, duration, []
    | Some path -> (
      match Yanc.Config.parse (read_file path) with
      | Error e ->
        Printf.eprintf "yancctl: %s: %s\n" path e;
        exit 2
      | Ok c ->
        parse_topo c.Yanc.Config.topology, c.of13, c.apps, c.duration, c.flows )
  in
  let topo =
    match topo with
    | Ok f -> f datapath
    | Error (`Msg e) ->
      Printf.eprintf "yancctl: %s\n" e;
      exit 2
  in
  let ctl = build ~topo ~of13 ~apps in
  Yanc.Controller.run_for ctl 0.3;
  (if flows <> [] then
     match
       Apps.Flow_pusher.push_config (Yanc.Controller.yfs ctl) ~cred:Vfs.Cred.root
         (String.concat "\n" flows)
     with
     | Ok n -> Printf.printf "pushed %d static flows\n" n
     | Error e -> Printf.eprintf "yancctl: flow push: %s\n" e);
  Yanc.Controller.run_for ctl duration;
  let env = Shell.Env.create (Yanc.Controller.fs ctl) in
  List.iter (do_ping ctl topo) pings;
  List.iter
    (fun line ->
      Printf.printf "$ %s\n" line;
      let r = Shell.Pipeline.run env line in
      print_string r.Shell.Pipeline.out;
      prerr_string r.Shell.Pipeline.err)
    execs;
  if stats then
    print_metrics ctl
      ~prefixes:[ "net."; "vfs."; "fs."; "fsnotify."; "datapath." ];
  0

let tree_cmd topo datapath of13 =
  setup_logs ();
  let ctl = build ~topo:(topo datapath) ~of13 ~apps:[ "topology" ] in
  Yanc.Controller.run_for ctl 3.0;
  print_string (Yancfs.Yanc_fs.tree (Yanc.Controller.yfs ctl));
  0

let counters_cmd topo datapath of13 apps duration switch =
  setup_logs ();
  let ctl = build ~topo:(topo datapath) ~of13 ~apps in
  Yanc.Controller.run_for ctl duration;
  let yfs = Yanc.Controller.yfs ctl in
  let fp = Libyanc.Fastpath.create yfs in
  let switches =
    match switch with
    | Some s -> [ s ]
    | None -> Yancfs.Yanc_fs.switch_names yfs
  in
  let code = ref 0 in
  List.iter
    (fun sw ->
      match Libyanc.Fastpath.read_flow_counters fp ~switch:sw with
      | Ok rows ->
        Printf.printf "%s: %d flows reporting\n" sw (List.length rows);
        List.iter
          (fun (flow, packets, bytes) ->
            Printf.printf "  %-24s %10Ld pkts %12Ld bytes\n" flow packets bytes)
          rows
      | Error e ->
        (* The errno matters here: an unknown switch (enoent) and a
           permission problem (eacces) print differently and fail. *)
        code := 1;
        Printf.eprintf "yancctl: counters: %s: %s\n" sw (Vfs.Errno.message e))
    switches;
  let any_dead = print_link_status ctl in
  if any_dead then begin
    Printf.eprintf "yancctl: counters: switch control channel dead\n";
    code := 1
  end;
  print_metrics ctl ~prefixes:[ "vfs.hooks"; "fsnotify."; "datapath."; "driver." ];
  !code

let top_cmd topo datapath of13 apps duration =
  setup_logs ();
  let ctl = build ~topo:(topo datapath) ~of13 ~apps in
  Yanc.Controller.run_for ctl duration;
  Printf.printf "yanc top — %.2fs simulated\n\n" (Yanc.Controller.now ctl);
  Printf.printf "%-16s %-10s %8s %10s %10s\n" "APP" "SCHEDULE" "ITER"
    "CPU_MS" "LAST_RUN";
  let by_runtime =
    List.sort
      (fun (_, (a : Yanc.Scheduler.app_stats)) (_, b) ->
        compare b.Yanc.Scheduler.runtime_ns a.Yanc.Scheduler.runtime_ns)
      (Yanc.Scheduler.stats (Yanc.Controller.scheduler ctl))
  in
  List.iter
    (fun (name, (s : Yanc.Scheduler.app_stats)) ->
      Printf.printf "%-16s %-10s %8d %10.3f %10s\n" name s.schedule
        s.iterations
        (float_of_int s.runtime_ns /. 1e6)
        (if s.last_run = neg_infinity then "never"
         else Printf.sprintf "%.2f" s.last_run))
    by_runtime;
  print_newline ();
  let any_dead = print_link_status ctl in
  (* The registry itself, read the way any application would read it:
     cat(1) on the proc file, through the shell. *)
  let env = Shell.Env.create (Yanc.Controller.fs ctl) in
  let r = Shell.Pipeline.run env "cat /yanc/.proc/metrics" in
  print_string r.Shell.Pipeline.out;
  prerr_string r.Shell.Pipeline.err;
  if any_dead then begin
    Printf.eprintf "yancctl: top: switch control channel dead\n";
    1
  end
  else r.Shell.Pipeline.code

(* --- cluster: sharded multi-node controller status ----------------------------- *)

let cluster_cmd topo datapath of13 nodes kill duration =
  setup_logs ();
  let built = topo datapath in
  let c =
    Yanc.Cluster.create
      ~version:(if of13 then Yanc.Controller.V13 else Yanc.Controller.V10)
      ~n:nodes ~net:built.N.Topo_gen.net ()
  in
  let settled =
    Yanc.Cluster.run_until ~tick:0.01 c (fun () -> Yanc.Cluster.converged c)
  in
  (match kill with
  | Some i when i >= 0 && i < Yanc.Cluster.size c ->
    Yanc.Cluster.kill c i;
    (* survivors need the lease to expire before they take over *)
    ignore
      (Yanc.Cluster.run_until ~tick:0.01 c (fun () ->
           Yanc.Cluster.converged c))
  | Some i ->
    Printf.eprintf "yancctl: cluster: no node %d (have %d)\n" i
      (Yanc.Cluster.size c)
  | None -> ());
  Yanc.Cluster.run_for ~tick:0.01 c duration;
  let now = N.Network.now (Yanc.Cluster.net c) in
  let dfs = Yanc.Cluster.dfs c in
  let dpids = built.N.Topo_gen.dpids in
  Printf.printf "cluster: %d node(s), %d switches, %.2fs simulated\n\n"
    (Yanc.Cluster.size c) (List.length dpids) now;
  Printf.printf "%-8s %-6s %10s %9s %9s %10s\n" "NODE" "STATE" "LEASE_S"
    "SWITCHES" "INSTALLS" "TAKEOVERS";
  (* Leases as the survivors see them: read from the first live node's
     replica, the same files the reconcile beat derives membership from. *)
  let viewer =
    match Yanc.Cluster.live_indexes c with i :: _ -> i | [] -> 0
  in
  let fs = Dfs.Cluster.node dfs viewer in
  List.iter
    (fun i ->
      let name = Yanc.Cluster.name_of c i in
      let lease =
        match
          Vfs.Fs.read_file fs ~cred:Vfs.Cred.root
            (Yancfs.Layout.cluster_lease name)
        with
        | Ok data -> (
          match float_of_string_opt (String.trim data) with
          | Some expiry -> Printf.sprintf "%+.2f" (expiry -. now)
          | None -> "?")
        | Error _ -> "-"
      in
      let attached =
        (* a dead node's manager is frozen state, not ownership *)
        if Yanc.Cluster.alive c i then
          string_of_int
            (List.length
               (Driver.Manager.attached
                  (Yanc.Controller.manager (Yanc.Cluster.controller c i))))
        else "-"
      in
      Printf.printf "%-8s %-6s %10s %9s %9d %10d\n" name
        (if Yanc.Cluster.alive c i then "live" else "dead")
        lease attached
        (Yanc.Cluster.node_installs c i)
        (Yanc.Cluster.takeovers c i))
    (List.init (Yanc.Cluster.size c) Fun.id);
  let unowned = Yanc.Cluster.unowned c in
  Printf.printf "\nshards: %d owned, %d unowned%s\n"
    (List.length dpids - List.length unowned)
    (List.length unowned)
    (if unowned = [] then ""
     else
       Printf.sprintf " (%s)"
         (String.concat ", " (List.map Int64.to_string unowned)));
  if not settled then
    Printf.eprintf "yancctl: cluster: boot did not converge\n";
  if unowned <> [] || not settled then 1 else 0

(* --- observability: cluster trace, health, blackbox ---------------------------- *)

let boot_cluster ~built ~of13 ~nodes =
  let c =
    Yanc.Cluster.create
      ~version:(if of13 then Yanc.Controller.V13 else Yanc.Controller.V10)
      ~n:nodes ~net:built.N.Topo_gen.net ()
  in
  if
    not
      (Yanc.Cluster.run_until ~tick:0.01 c (fun () -> Yanc.Cluster.converged c))
  then Printf.eprintf "yancctl: cluster boot did not converge\n";
  c

let node_index_of_name c name =
  let rec go i =
    if i >= Yanc.Cluster.size c then None
    else if Yanc.Cluster.name_of c i = name then Some i
    else go (i + 1)
  in
  go 0

let list_nodes c =
  Printf.eprintf "nodes:\n";
  List.iter
    (fun i ->
      Printf.eprintf "  %s (%s)\n" (Yanc.Cluster.name_of c i)
        (if Yanc.Cluster.alive c i then "live" else "dead"))
    (List.init (Yanc.Cluster.size c) Fun.id)

(* A node's proc files are generators on its own replica — read them
   through that node's fs, exactly where its processes would. *)
let read_node_proc c i file =
  let proc = Yancfs.Layout.node_proc_root (Yanc.Cluster.name_of c i) in
  Vfs.Fs.read_file
    (Yanc.Controller.fs (Yanc.Cluster.controller c i))
    ~cred:Vfs.Cred.root (file ~proc)

(* One cross-node write, traced from the client side: create a flow on
   node 0's replica for a switch owned elsewhere, so the span tree
   crosses the op-log — yancctl.flow_write → dfs.forward → dfs.apply on
   the owner → driver.flow_mod → switch.install — under ONE trace id
   visible in two nodes' rings. *)
let traced_cross_write c built =
  let dpid =
    match
      List.find_opt
        (fun d -> Yanc.Cluster.owner_index c d <> Some 0)
        built.N.Topo_gen.dpids
    with
    | Some d -> d
    | None -> List.hd built.N.Topo_gen.dpids
  in
  let swname = Yancfs.Yanc_fs.switch_name_of_dpid dpid in
  let ctl0 = Yanc.Cluster.controller c 0 in
  let tr = Telemetry.tracer (Yanc.Controller.telemetry ctl0) in
  ignore (Telemetry.Tracer.fresh tr);
  Fun.protect
    ~finally:(fun () -> Telemetry.Tracer.clear tr)
    (fun () ->
      Telemetry.Tracer.span tr ~stage:"yancctl.flow_write" (fun () ->
          Telemetry.Tracer.stamp tr
            (Yancfs.Layout.trace_key_flow ~switch:swname "ctl0");
          let flow =
            { Yancfs.Flowdir.default with
              Yancfs.Flowdir.of_match =
                { Openflow.Of_match.any with Openflow.Of_match.in_port = Some 1 };
              actions = [ Openflow.Action.Output (Openflow.Action.Physical 2) ];
              priority = 77 }
          in
          match
            Yancfs.Yanc_fs.create_flow (Yanc.Controller.yfs ctl0)
              ~cred:Vfs.Cred.root ~switch:swname ~name:"ctl0" flow
          with
          | Ok () -> ()
          | Error e ->
            Printf.eprintf "yancctl: trace: create_flow: %s\n"
              (Vfs.Errno.message e)))

(* The per-stage table over the fleet: merged rollup entries, so a
   stage's p99 is the percentile of the union of every node's spans. *)
let print_cluster_stage_table c =
  let entries = Telemetry.Registry.entries (Yanc.Cluster.rollup_snapshot c) in
  let has_suffix s suf =
    let ls = String.length s and lf = String.length suf in
    ls > lf && String.sub s (ls - lf) lf = suf
  in
  let stages =
    List.filter_map
      (fun (name, v) ->
        if
          String.length name > 12
          && String.sub name 0 6 = "trace."
          && has_suffix name ".count"
        then Some (String.sub name 6 (String.length name - 12), v)
        else None)
      entries
  in
  let get stage suf =
    Option.value ~default:0.
      (List.assoc_opt (Printf.sprintf "trace.%s.%s" stage suf) entries)
  in
  let stages =
    List.sort
      (fun (a, _) (b, _) -> compare (get a "p50") (get b "p50"))
      stages
  in
  Printf.printf "%-20s %8s %12s %12s %12s\n" "STAGE" "SPANS" "P50_MS"
    "P99_MS" "MAX_MS";
  List.iter
    (fun (stage, count) ->
      Printf.printf "%-20s %8.0f %12.4f %12.4f %12.4f\n" stage count
        (get stage "p50" *. 1e3)
        (get stage "p99" *. 1e3)
        (get stage "max" *. 1e3))
    stages

let trace_cluster built ~of13 ~nodes ~duration ~node_name =
  let c = boot_cluster ~built ~of13 ~nodes in
  traced_cross_write c built;
  Yanc.Cluster.run_for ~tick:0.01 c (max 0.5 duration);
  let cat_pipe i =
    match read_node_proc c i Yancfs.Layout.proc_trace_pipe with
    | Ok data -> print_string data
    | Error e -> Printf.eprintf "yancctl: trace: %s\n" (Vfs.Errno.message e)
  in
  match node_name with
  | Some name -> (
    match node_index_of_name c name with
    | None ->
      Printf.eprintf "yancctl: trace: no node %S\n" name;
      list_nodes c;
      2
    | Some i ->
      cat_pipe i;
      print_newline ();
      print_cluster_stage_table c;
      0)
  | None ->
    List.iter
      (fun i ->
        Printf.printf "# node %s\n" (Yanc.Cluster.name_of c i);
        cat_pipe i)
      (Yanc.Cluster.live_indexes c);
    print_newline ();
    print_cluster_stage_table c;
    0

let trace_cmd topo datapath of13 apps duration pings pipe nodes node_name =
  setup_logs ();
  let topo = topo datapath in
  if nodes > 1 || node_name <> None then
    trace_cluster topo ~of13 ~nodes:(max 2 nodes) ~duration ~node_name
  else begin
  let ctl = build ~topo ~of13 ~apps in
  Yanc.Controller.run_for ctl duration;
  List.iter (do_ping ctl topo) pings;
  (if pipe then begin
     let env = Shell.Env.create (Yanc.Controller.fs ctl) in
     let r = Shell.Pipeline.run env "cat /yanc/.proc/trace_pipe" in
     print_string r.Shell.Pipeline.out;
     prerr_string r.Shell.Pipeline.err;
     print_newline ()
   end);
  let reg = Telemetry.registry (Yanc.Controller.telemetry ctl) in
  let stages =
    List.filter_map
      (fun (name, h) ->
        if String.length name > 6 && String.sub name 0 6 = "trace." then
          Some (String.sub name 6 (String.length name - 6), h)
        else None)
      (Telemetry.Registry.histograms reg)
  in
  (* Mean end-to-end latency orders the stages as the pipeline ran. *)
  let mean h =
    if Telemetry.Registry.hist_count h = 0 then 0.
    else
      Telemetry.Registry.percentile h 0.5
  in
  let stages =
    List.sort (fun (_, a) (_, b) -> compare (mean a) (mean b)) stages
  in
  Printf.printf "%-20s %8s %12s %12s %12s\n" "STAGE" "SPANS" "P50_MS"
    "P99_MS" "MAX_MS";
  List.iter
    (fun (stage, h) ->
      Printf.printf "%-20s %8d %12.4f %12.4f %12.4f\n" stage
        (Telemetry.Registry.hist_count h)
        (Telemetry.Registry.percentile h 0.5 *. 1e3)
        (Telemetry.Registry.percentile h 0.99 *. 1e3)
        (Telemetry.Registry.hist_max h *. 1e3))
    stages;
  0
  end

(* --- health: the SLO probe table, judged from the health file ------------------- *)

let finish_health report =
  print_string report;
  match Telemetry.Health.status_of_render report with
  | Some level -> Telemetry.Health.exit_code level
  | None ->
    Printf.eprintf "yancctl: health: unparseable report\n";
    2

let health_cmd topo datapath of13 apps nodes kill duration watch =
  setup_logs ();
  let built = topo datapath in
  if nodes > 1 then begin
    let c = boot_cluster ~built ~of13 ~nodes in
    let read_health () =
      match Yanc.Cluster.live_indexes c with
      | [] -> "status crit\nlive_nodes crit value=0 limit=1 series=cluster.live_nodes\n"
      | i :: _ -> (
        let fs = Yanc.Controller.fs (Yanc.Cluster.controller c i) in
        match
          Vfs.Fs.read_file fs ~cred:Vfs.Cred.root
            (Yancfs.Layout.proc_health
               ~proc:Yancfs.Layout.cluster_proc_root)
        with
        | Ok data -> data
        | Error e ->
          Printf.sprintf "status crit\nhealth_file crit value=na limit=0 series=%s\n"
            (Vfs.Errno.message e))
    in
    let steps = if watch then 5 else 1 in
    for s = 1 to steps do
      Yanc.Cluster.run_for ~tick:0.01 c (duration /. float_of_int steps);
      if watch && s < steps then begin
        Printf.printf "--- t=%.2f\n" (N.Network.now (Yanc.Cluster.net c));
        print_string (read_health ())
      end
    done;
    (match kill with
    | Some i when i >= 0 && i < Yanc.Cluster.size c ->
      (* kill and judge immediately: the pre-takeover window is exactly
         what the probe table must catch (unowned shards -> crit) *)
      Yanc.Cluster.kill c i;
      Printf.printf "--- killed %s (pre-takeover)\n" (Yanc.Cluster.name_of c i)
    | Some i ->
      Printf.eprintf "yancctl: health: no node %d (have %d)\n" i
        (Yanc.Cluster.size c)
    | None -> ());
    if watch then Printf.printf "--- t=%.2f\n" (N.Network.now (Yanc.Cluster.net c));
    finish_health (read_health ())
  end
  else begin
    let ctl = build ~topo:built ~of13 ~apps in
    let read_health () =
      match
        Vfs.Fs.read_file (Yanc.Controller.fs ctl) ~cred:Vfs.Cred.root
          (Yancfs.Layout.proc_health
             ~proc:Yancfs.Layout.default_proc_root)
      with
      | Ok data -> data
      | Error e ->
        Printf.sprintf "status crit\nhealth_file crit value=na limit=0 series=%s\n"
          (Vfs.Errno.message e)
    in
    let steps = if watch then 5 else 1 in
    for s = 1 to steps do
      Yanc.Controller.run_for ctl (duration /. float_of_int steps);
      if watch && s < steps then begin
        Printf.printf "--- t=%.2f\n" (Yanc.Controller.now ctl);
        print_string (read_health ())
      end
    done;
    finish_health (read_health ())
  end

(* --- blackbox: the flight recorder, live window or replicated dumps ------------- *)

let blackbox_cmd topo datapath of13 nodes kill duration node_name =
  setup_logs ();
  let built = topo datapath in
  if nodes > 1 || node_name <> None || kill <> None then begin
    let nodes = max 2 nodes in
    let c = boot_cluster ~built ~of13 ~nodes in
    traced_cross_write c built;
    Yanc.Cluster.run_for ~tick:0.01 c duration;
    (match kill with
    | Some i when i >= 0 && i < Yanc.Cluster.size c ->
      Yanc.Cluster.kill c i;
      (* survivors detect the death, dump their boxes, take over *)
      ignore
        (Yanc.Cluster.run_until ~tick:0.01 c (fun () ->
             Yanc.Cluster.converged c))
    | Some i ->
      Printf.eprintf "yancctl: blackbox: no node %d (have %d)\n" i
        (Yanc.Cluster.size c)
    | None -> ());
    match node_name with
    | Some name -> (
      match node_index_of_name c name with
      | None ->
        Printf.eprintf "yancctl: blackbox: no node %S\n" name;
        list_nodes c;
        2
      | Some i -> (
        match read_node_proc c i Yancfs.Layout.proc_blackbox with
        | Ok data ->
          print_string data;
          0
        | Error e ->
          Printf.eprintf "yancctl: blackbox: %s\n" (Vfs.Errno.message e);
          1))
    | None -> (
      (* post-mortems are replicated files — read them off a survivor *)
      let viewer =
        match Yanc.Cluster.live_indexes c with i :: _ -> i | [] -> 0
      in
      let fs = Yanc.Controller.fs (Yanc.Cluster.controller c viewer) in
      let cred = Vfs.Cred.root in
      match Vfs.Fs.readdir fs ~cred Yancfs.Layout.blackbox_dumps_dir with
      | Ok (_ :: _ as dumps) ->
        List.iter
          (fun name ->
            Printf.printf "# /yanc/blackbox/%s\n" name;
            match
              Vfs.Fs.read_file fs ~cred
                (Vfs.Path.child Yancfs.Layout.blackbox_dumps_dir name)
            with
            | Ok data -> print_string data
            | Error e ->
              Printf.eprintf "yancctl: blackbox: %s: %s\n" name
                (Vfs.Errno.message e))
          dumps;
        0
      | Ok [] | Error _ ->
        (* nothing crashed: show every live node's current window *)
        List.iter
          (fun i ->
            Printf.printf "# node %s (live window)\n"
              (Yanc.Cluster.name_of c i);
            match read_node_proc c i Yancfs.Layout.proc_blackbox with
            | Ok data -> print_string data
            | Error e ->
              Printf.eprintf "yancctl: blackbox: %s\n" (Vfs.Errno.message e))
          (Yanc.Cluster.live_indexes c);
        0)
  end
  else begin
    let ctl = build ~topo:built ~of13 ~apps:[ "topology"; "router" ] in
    Yanc.Controller.run_for ctl duration;
    match
      Vfs.Fs.read_file (Yanc.Controller.fs ctl) ~cred:Vfs.Cred.root
        (Yancfs.Layout.proc_blackbox ~proc:Yancfs.Layout.default_proc_root)
    with
    | Ok data ->
      print_string data;
      0
    | Error e ->
      Printf.eprintf "yancctl: blackbox: %s\n" (Vfs.Errno.message e);
      1
  end

let shell_cmd topo datapath of13 apps script_file lines =
  setup_logs ();
  let ctl = build ~topo:(topo datapath) ~of13 ~apps in
  Yanc.Controller.run_for ctl 1.0;
  let env = Shell.Env.create (Yanc.Controller.fs ctl) in
  let code = ref 0 in
  (match script_file with
  | Some path ->
    let ic = open_in path in
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    let r = Shell.Pipeline.run_script env content in
    print_string r.Shell.Pipeline.out;
    prerr_string r.Shell.Pipeline.err;
    code := r.Shell.Pipeline.code
  | None -> ());
  List.iter
    (fun line ->
      let r = Shell.Pipeline.run env line in
      print_string r.Shell.Pipeline.out;
      prerr_string r.Shell.Pipeline.err;
      if r.Shell.Pipeline.code <> 0 then code := r.Shell.Pipeline.code)
    lines;
  Yanc.Controller.run_for ctl 0.5;
  !code

(* --- policy: compile a policy file, or watch the engine run it ------------------ *)

let demo_policy =
  "# demo policy: ARP to the controller, web to port 1, DNS to port 2\n\
   filter dl_type = 0x0806 ; controller\n\
   | filter dl_type = 0x0800 && tp_dst = 80 ; fwd(1)\n\
   | filter dl_type = 0x0800 && tp_dst = 53 ; fwd(2)\n"

let read_host_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let policy_check text =
  match Policy.Syntax.parse text with
  | Error e ->
    Printf.eprintf "yancctl: policy: %s\n" e;
    1
  | Ok ir -> (
    match Policy.Compile.to_flows ir with
    | Error e ->
      Printf.eprintf "yancctl: policy: %s\n" e;
      1
    | Ok rules ->
      Printf.printf "parsed: %s\n" (Policy.Syntax.to_string ir);
      Printf.printf "compiled: %d classifier rules\n\n" (List.length rules);
      print_string (Policy.Compile.render rules);
      0)

let policy_cmd action file topo datapath of13 duration =
  setup_logs ();
  let text =
    match file with Some f -> read_host_file f | None -> demo_policy
  in
  if action = "check" then policy_check text
  else begin
    let built = topo datapath in
    let ctl = build ~topo:built ~of13 ~apps:[ "topology" ] in
    let eng = Yanc.Controller.add_policy_engine ctl in
    let cred = Vfs.Cred.root in
    let fs = Yanc.Controller.fs ctl in
    (match
       Vfs.Fs.write_file fs ~cred (Yancfs.Layout.policy_file "main") text
     with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "yancctl: policy: write: %s\n" (Vfs.Errno.message e));
    Yanc.Controller.run_for ctl duration;
    let proc_report =
      match
        Vfs.Fs.read_file fs ~cred
          (Yancfs.Layout.proc_policy ~proc:Yancfs.Layout.default_proc_root)
      with
      | Ok s -> s
      | Error e -> Printf.sprintf "(unreadable: %s)\n" (Vfs.Errno.message e)
    in
    match action with
    | "stats" ->
      (* the engine's own series plus the commit queue it drives *)
      print_string "--- /yanc/.proc/policy\n";
      print_string proc_report;
      print_string "--- policy.* and driver.commit.* metrics\n";
      (match
         Vfs.Fs.read_file fs ~cred
           (Yancfs.Layout.proc_metrics ~proc:Yancfs.Layout.default_proc_root)
       with
      | Ok metrics ->
        String.split_on_char '\n' metrics
        |> List.iter (fun line ->
               let has p =
                 String.length line >= String.length p
                 && String.sub line 0 (String.length p) = p
               in
               if has "policy." || has "driver.commit." then
                 print_endline line)
      | Error e ->
        Printf.eprintf "yancctl: policy: metrics: %s\n" (Vfs.Errno.message e));
      0
    | _ ->
      (* show *)
      print_string "--- /yanc/policy/main\n";
      print_string text;
      if text <> "" && text.[String.length text - 1] <> '\n' then
        print_newline ();
      print_string "--- /yanc/.proc/policy\n";
      print_string proc_report;
      print_string "--- compiled rules (installed on every switch)\n";
      print_string (Policy.Compile.render (Apps.Policy_engine.desired eng));
      let yfs = Yanc.Controller.yfs ctl in
      List.iter
        (fun swname ->
          let n =
            Yancfs.Yanc_fs.flow_name_set yfs ~cred swname
            |> Yancfs.Yanc_fs.Name_set.filter (fun name ->
                   let p = Apps.Policy_engine.flow_prefix in
                   String.length name > String.length p
                   && String.sub name 0 (String.length p) = p)
            |> Yancfs.Yanc_fs.Name_set.cardinal
          in
          Printf.printf "%s: %d policy flows installed\n" swname n)
        (Yancfs.Yanc_fs.switch_names yfs);
      0
  end

(* --- cmdliner wiring ------------------------------------------------------------------ *)

open Cmdliner

let topo_arg =
  Arg.(
    value
    & opt topo_conv (fun strategy -> N.Topo_gen.linear ~strategy 2)
    & info [ "t"; "topo" ] ~docv:"TOPOLOGY"
        ~doc:
          "Simulated topology: linear:N, ring:N, star:N, tree:FxD, \
           fat-tree:K, random:N.")

let datapath_arg =
  Arg.(
    value
    & opt
        (enum
           [ "linear", N.Flow_table.Linear;
             "classifier", N.Flow_table.Classifier ])
        N.Flow_table.Classifier
    & info [ "datapath" ] ~docv:"STRATEGY"
        ~doc:
          "Switch flow-table lookup strategy: classifier (tuple-space \
           search with a microflow cache, the default here) or linear \
           (the reference scan, and the library and benchmark default).")

let of13_arg =
  Arg.(value & flag & info [ "of13" ] ~doc:"Attach OpenFlow 1.3 drivers instead of 1.0.")

let apps_arg =
  Arg.(
    value
    & opt (list string) [ "topology"; "router" ]
    & info [ "a"; "apps" ] ~docv:"APPS"
        ~doc:
          "Applications to run: topology, router, learning, arpd, auditor, \
           accounting, switch-watcher, flow-watcher (re-pushes /etc/flows on \
           change).")

let duration_arg =
  Arg.(
    value & opt float 3.0
    & info [ "d"; "duration" ] ~docv:"SECONDS"
        ~doc:"Simulated seconds to run before executing pings/commands.")

let exec_arg =
  Arg.(
    value & opt_all string []
    & info [ "e"; "exec" ] ~docv:"CMD" ~doc:"Shell command to run against the tree.")

let ping_arg =
  Arg.(
    value & opt_all string []
    & info [ "ping" ] ~docv:"hX:hY" ~doc:"Send a ping between two hosts.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print frame and syscall statistics.")

let config_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "c"; "config" ] ~docv:"FILE"
        ~doc:
          "Controller config file (topology/protocol/app/duration/flow \
           lines); overrides the corresponding flags.")

let run_t =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a controller over a simulated network.")
    Term.(
      const run_cmd $ config_arg $ topo_arg $ datapath_arg $ of13_arg
      $ apps_arg $ duration_arg $ exec_arg $ ping_arg $ stats_arg)

let tree_t =
  Cmd.v
    (Cmd.info "tree" ~doc:"Print the /net hierarchy after discovery (Figure 2).")
    Term.(const tree_cmd $ topo_arg $ datapath_arg $ of13_arg)

let script_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "script" ] ~docv:"FILE" ~doc:"Shell script file to run against /net.")

let lines_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"CMD" ~doc:"Commands to run.")

let shell_t =
  Cmd.v
    (Cmd.info "shell" ~doc:"Run shell commands or a script against a live controller.")
    Term.(
      const shell_cmd $ topo_arg $ datapath_arg $ of13_arg $ apps_arg
      $ script_arg $ lines_arg)

let switch_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "s"; "switch" ] ~docv:"SWITCH"
        ~doc:"Only this switch (default: all discovered switches).")

let counters_t =
  Cmd.v
    (Cmd.info "counters"
       ~doc:
         "Dump per-flow packet/byte counters via the libyanc fastpath, plus \
          the controller's fsnotify routing counters and its VFS hook \
          count.")
    Term.(
      const counters_cmd $ topo_arg $ datapath_arg $ of13_arg $ apps_arg
      $ duration_arg $ switch_arg)

let top_t =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Per-app scheduler accounting (iterations, CPU time, last run) \
          followed by the full metrics registry as served by \
          /yanc/.proc/metrics.")
    Term.(
      const top_cmd $ topo_arg $ datapath_arg $ of13_arg $ apps_arg
      $ duration_arg)

let pipe_arg =
  Arg.(
    value & flag
    & info [ "pipe" ]
        ~doc:"Also dump the raw span records from /yanc/.proc/trace_pipe.")

let nodes_arg =
  Arg.(
    value & opt int 2
    & info [ "n"; "nodes" ] ~docv:"N"
        ~doc:"Controller nodes to run (sharded switch ownership).")

let kill_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "kill" ] ~docv:"NODE"
        ~doc:
          "After boot converges, kill this node index and wait for the \
           survivors to take its shards over before reporting.")

let trace_nodes_arg =
  Arg.(
    value & opt int 1
    & info [ "n"; "nodes" ] ~docv:"N"
        ~doc:
          "Run an N-node cluster instead of one controller, drive a \
           traced cross-node write, and report the fleet-merged stage \
           table (implies cluster mode for N > 1).")

let node_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "node" ] ~docv:"NAME"
        ~doc:
          "In cluster mode, read this node's \
           /yanc/nodes/NAME/.proc/trace_pipe (trace) or live flight \
           recorder (blackbox); an unknown name lists the nodes.")

let trace_t =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace packet-ins end to end: run a workload, then report \
          per-stage latency percentiles from the span tracer \
          (scheduler wake, app handler, yancfs write, flow-mod encode, \
          switch install). With --nodes N or --node NAME, boot a \
          cluster, drive a traced write that replicates across nodes, \
          and dump the named node's span ring — one trace id spans the \
          originating and owning node.")
    Term.(
      const trace_cmd $ topo_arg $ datapath_arg $ of13_arg $ apps_arg
      $ duration_arg $ ping_arg $ pipe_arg $ trace_nodes_arg $ node_arg)

let watch_arg =
  Arg.(
    value & flag
    & info [ "watch" ]
        ~doc:"Print an interim health report at each fifth of the run.")

let health_nodes_arg =
  Arg.(
    value & opt int 1
    & info [ "n"; "nodes" ] ~docv:"N"
        ~doc:
          "Judge an N-node cluster's merged rollup \
           (/yanc/cluster/.proc/health) instead of one controller's \
           /yanc/.proc/health.")

let health_kill_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "kill" ] ~docv:"NODE"
        ~doc:
          "Kill this node index after the run and judge health \
           immediately — pre-takeover, so unowned shards must trip the \
           crit probe and the exit code.")

let health_t =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Evaluate the SLO probe table against the health file \
          (/yanc/.proc/health, or the cluster rollup with --nodes) and \
          exit nonzero on any crit breach: dead switches, driver fs \
          errors, unowned shards, takeover-latency p99. Warnings \
          (install-latency, trace-ring overruns) inform but pass.")
    Term.(
      const health_cmd $ topo_arg $ datapath_arg $ of13_arg $ apps_arg
      $ health_nodes_arg $ health_kill_arg $ duration_arg $ watch_arg)

let blackbox_t =
  Cmd.v
    (Cmd.info "blackbox"
       ~doc:
         "Read the flight recorder: the always-on bounded ring of \
          recent spans, status transitions and faults. Single node \
          prints the live window from /yanc/.proc/blackbox; with \
          --nodes and --kill, prints the post-mortem dumps the \
          survivors replicated under /yanc/blackbox when they detected \
          the death; --node NAME prints one node's live window.")
    Term.(
      const blackbox_cmd $ topo_arg $ datapath_arg $ of13_arg
      $ trace_nodes_arg $ kill_arg $ duration_arg $ node_arg)

let cluster_t =
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Boot an N-node sharded cluster over the topology and report \
          membership (lease validity as read from a live replica), \
          per-node attached switches, installs and takeovers, and the \
          shard ownership invariant — nonzero exit if any shard is \
          unowned.")
    Term.(
      const cluster_cmd $ topo_arg $ datapath_arg $ of13_arg $ nodes_arg
      $ kill_arg $ duration_arg)

let policy_action_arg =
  Arg.(
    value
    & pos 0 (enum [ "show", "show"; "check", "check"; "stats", "stats" ]) "show"
    & info [] ~docv:"ACTION"
        ~doc:
          "$(b,check) parses and compiles the policy and prints the \
           classifier (exit 1 on error, no controller involved); \
           $(b,show) runs the engine over a demo rig and reports the \
           installed state; $(b,stats) dumps the policy.* and \
           driver.commit.* series after such a run.")

let policy_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"FILE"
        ~doc:
          "Policy text to use (concrete syntax, see /yanc/policy in the \
           README); default is a small built-in demo policy.")

let policy_t =
  Cmd.v
    (Cmd.info "policy"
       ~doc:
         "The policy compiler: check a policy file offline, or boot a \
          demo controller, drop the policy into /yanc/policy/ and report \
          what the engine compiled and installed \
          (/yanc/.proc/policy, compiled rules, per-switch flow counts).")
    Term.(
      const policy_cmd $ policy_action_arg $ policy_file_arg $ topo_arg
      $ datapath_arg $ of13_arg $ duration_arg)

let main =
  Cmd.group
    (Cmd.info "yancctl" ~version:"1.0.0"
       ~doc:"yanc: a file-system-centric SDN controller (simulated).")
    [ run_t; tree_t; shell_t; counters_t; top_t; trace_t; cluster_t;
      health_t; blackbox_t; policy_t ]

let () = exit (Cmd.eval' main)
