module Path = Vfs.Path

let default_root = Path.of_string_exn "/net"

let hosts_dir ~root = Path.child root Schema.hosts.name

let switches_dir ~root = Path.child root Schema.switches.name

let host ~root name = Path.child (hosts_dir ~root) name

let view ~root name = Path.child (Path.child root Schema.views.name) name

let switch ~root name = Path.child (switches_dir ~root) name

let switch_attr ~root name attr = Path.child (switch ~root name) attr

let flows_dir ~root name = Path.child (switch ~root name) Schema.flows.name

let flow ~root ~switch:sw name = Path.child (flows_dir ~root sw) name

let flow_attr ~root ~switch ~flow:f attr = Path.child (flow ~root ~switch f) attr

let flow_counters ~root ~switch f =
  Path.child (flow ~root ~switch f) Schema.flow_counters.name

let ports_dir ~root name = Path.child (switch ~root name) Schema.ports.name

let port_no_of_name s = int_of_string_opt (Schema.number Schema.port s)

let port ~root ~switch:sw n =
  Path.child (ports_dir ~root sw) (Schema.numbered Schema.port (string_of_int n))

let port_attr ~root ~switch ~port:n attr = Path.child (port ~root ~switch n) attr

let port_counters ~root ~switch n =
  port_attr ~root ~switch ~port:n Schema.port_counters.name

let events_dir ~root name = Path.child (switch ~root name) Schema.events.name

let packet_out_dir ~root name = Path.child (switch ~root name) Schema.packet_out.name

let event_buffer ~root ~switch app = Path.child (events_dir ~root switch) app

(* --- tracer correlation keys (see Telemetry.Tracer) -------------------------- *)

let trace_key_event seq = Printf.sprintf "ev:%d" seq

(* Built per flow commit, and per replicated op of one on a traced
   cluster replica: a concatenation, not a format. *)
let trace_key_flow ~switch name = String.concat "" [ "flow:"; switch; "/"; name ]

(* --- /yanc/cluster (sharded multi-node control, see Yanc.Cluster) ------------ *)

let cluster_root = Path.of_string_exn "/yanc/cluster"

let cluster_nodes_dir = Path.child cluster_root "nodes"

let cluster_node name = Path.child cluster_nodes_dir name

let cluster_lease name = Path.child (cluster_node name) "lease"

let cluster_shards_dir = Path.child cluster_root "shards"

let cluster_shard dpid = Path.child cluster_shards_dir (Int64.to_string dpid)

let node_proc_root name =
  Path.of_string_exn (Printf.sprintf "/yanc/nodes/%s/.proc" name)

(* The fleet-wide rollup: merged metrics + health, mounted on every
   replica so any node's mount answers for the whole cluster. *)
let cluster_proc_root = Path.child cluster_root ".proc"

(* Flight-recorder dumps (takeover, violated invariant) land here as
   ordinary replicated files — the post-mortem survives its node. *)
let blackbox_dumps_dir = Path.of_string_exn "/yanc/blackbox"

let blackbox_dump ~node n =
  Path.child blackbox_dumps_dir (Printf.sprintf "%s-%d" node n)

(* --- /yanc/policy (policy programs as files, see Apps.Policy_engine) ------- *)

let policy_root = Path.of_string_exn "/yanc/policy"

let policy_file name = Path.child policy_root name

let policy_errors_dir = Path.child policy_root ".errors"

let policy_error name = Path.child policy_errors_dir name

(* --- /yanc/.proc (procfs analog, see Procdir) ------------------------------- *)

let default_proc_root = Path.of_string_exn "/yanc/.proc"

let proc_policy ~proc = Path.child proc "policy"

let proc_metrics ~proc = Path.child proc "metrics"

let proc_trace_pipe ~proc = Path.child proc "trace_pipe"

let proc_health ~proc = Path.child proc "health"

let proc_blackbox ~proc = Path.child proc "blackbox"

let proc_fsck ~proc = Path.child proc "fsck"

let proc_apps_dir ~proc = Path.child proc "apps"

let proc_app ~proc name = Path.child (proc_apps_dir ~proc) name

let proc_app_stat ~proc name = Path.child (proc_app ~proc name) "stat"

let proc_switches_dir ~proc = Path.child proc "switches"

let proc_switch ~proc name = Path.child (proc_switches_dir ~proc) name

let proc_switch_stat ~proc name = Path.child (proc_switch ~proc name) "stat"
